"""Byte pins of library solves that the CLI golden artifacts do not reach.

The golden artifacts run the CLI on square grids with odd nx only.  These
pins hash the results of direct library calls on bc7 over a 13 x 9 grid,
where hx != hy: harmonic extensions, penalized solves with and without a
load (through a plan and through the public call), a zero-weight solve with
a load, one sweep of each public step, and a short continuation run of every
scheme.  One more pin covers bc7 over a 12 x 9 grid, where nx is even and the
red-black layout has a padding column: a plan solve with x0 and a load, and
short picard and phase_field runs (black-half starts from x0, then Galerkin
starts).  The last pin is the run the `penalty-ex41` benchmark times: picard
with damping 0.5 on ex41 over a 51 x 51 grid and the ladder 1e-2 ... 1e-5
(303 sweeps, about 0.3 s), hashed as its final stack and each history row's
energy and CG iterations.  A refactor keeps every hash; an intended change
of bits replaces the entry, with the reason in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from segsolve.boundary import builtin_config, evaluate_bc
from segsolve.grid import SystemState, build_grid
from segsolve.linear_solver import (
    HelmholtzProblem,
    _RedBlackPlan,
    harmonic_extension,
    solve_helmholtz_with_info,
)
from segsolve.penalty import (
    SCHEMES,
    PenaltyConfig,
    gauss_seidel_step,
    phase_field_step,
    picard_step,
    run_penalty,
)

PINS = {
    "harmonic_extensions": "83144857c82ce1d7131dbce55c951b69a0ca1d24b5aedf80d66cd4b88f3a93d6",
    "plan_solve": "89e8cdd142131b67007a3b10382510b468cda1f12b0e2db93ef56b9bb3a11844",
    "plan_solve_with_load": "5158ec5b856cab8bc352ac3939d63418955d0b0b6e7b181ac60b8ea612ea46ac",
    "public_solve": "f492a7b1497d73b1f2a4384f5854f475a95bad95317080c1011f7d7faad2a622",
    "public_solve_with_load": "51fbbf7e1893b085233f9f7cb60db84af8f9eba8c4a2876e16c94a2ff52e86a4",
    "zero_weight_solve_with_load": "c0ecacd1777ff44ca9914802d7e1f492af171925e8f8f8d8de75b6edd873433d",
    "picard_step": "4fe4740d0fcb822842dda6884e555cd2afe1d4a1218aebcf8e13c1a4e5ccc7fa",
    "gauss_seidel_step": "177c12a03c28a26d7971f5f6e4da04fbce8a4ee7903904d933c4e70077a4a404",
    "phase_field_step": "401724e797c06a8ae21f97816a9abe84a542665c7168b1cf5db37d945753c94d",
    # up to twelve sweeps a stage on eps 1e-2, 1e-3; from the third on, Galerkin starts
    "run_penalty_picard": "30dd01db706e15138b73b66b49dffc67517daeca4cfe5a99fd654422651cf9f8",
    "run_penalty_gauss_seidel": "64e2ad66f44468b4a8e4c657d98cb6511a9584feb0a81bc4c8e046909861781f",
    "run_penalty_semi_implicit": "b2232bce3fd44565e2a8c02bcbd053c8ff862de3073d019e5a36b31c1ec53b62",
    "run_penalty_phase_field": "e492c29384a1e2b3c33a963a511b8e65d0dea10011e925be28e44a2a08465fbe",
    "even_nx": "bf58527d2818c4819d79654351b66040b110089638305393ebcd055ab5bf020f",
    "penalty_ex41_n51": "a6a23a01b9918a0d9d854b3681a86fac3864b31126b40feebc78a2550fb9b7d6",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else json.dumps(part).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def case():
    grid = build_grid(13, 9, (-1.0, 1.0, -1.0, 1.0))
    trace = evaluate_bc(builtin_config("bc7"), grid)
    u0 = np.stack([harmonic_extension(grid, trace.phi[k]).values for k in range(3)])
    return grid, trace, u0


def _solve(problem, **kwargs):
    fld, info = solve_helmholtz_with_info(problem, **kwargs)
    return _sha(fld.values, [info.iterations, info.rel_residual, info.start_applies])


def library_digests(grid, trace, u0) -> dict:
    """The pinned digests, by name."""
    tr = trace.phi
    w = (u0[1] * u0[2]) ** 2
    load = -(w / 2e-3) * u0[0]
    penalized = HelmholtzProblem(grid, w, 1e-3, tr[0])
    loaded = HelmholtzProblem(grid, w / 2.0, 1e-3, tr[0], load=load)
    out = {
        "harmonic_extensions": _sha(u0),
        "plan_solve": _solve(penalized, x0=u0[0], plan=_RedBlackPlan(grid, tr[0])),
        "plan_solve_with_load": _solve(loaded, x0=u0[0], plan=_RedBlackPlan(grid, tr[0])),
        "public_solve": _solve(penalized),
        "public_solve_with_load": _solve(loaded),
        "zero_weight_solve_with_load": _solve(
            HelmholtzProblem(grid, np.zeros(grid.shape), 1.0, tr[0], load=load), x0=u0[0]
        ),
    }
    state = SystemState.from_stack(grid, u0)
    out["picard_step"] = _sha(picard_step(state, trace, 1e-3, 0.5).stack())
    out["gauss_seidel_step"] = _sha(gauss_seidel_step(state, trace, 1e-3).stack())
    out["phase_field_step"] = _sha(phase_field_step(state, trace, 1e-3).stack())
    for scheme in SCHEMES:
        cfg = PenaltyConfig(1e-3, scheme=scheme, max_outer=12)
        final, history, report = run_penalty(grid, trace, cfg)
        out[f"run_penalty_{scheme}"] = _sha(final.stack(), history, report.meta["stages"])
    out["even_nx"] = even_nx_digest()
    out["penalty_ex41_n51"] = penalty_ex41_n51_digest()
    return out


def even_nx_digest() -> str:
    """bc7 on 12 x 9: a plan solve with x0 and a load, short picard and phase_field runs."""
    grid = build_grid(12, 9, (-1.0, 1.0, -1.0, 1.0))
    trace = evaluate_bc(builtin_config("bc7"), grid)
    tr = trace.phi
    u0 = np.stack([harmonic_extension(grid, tr[k]).values for k in range(3)])
    w = (u0[1] * u0[2]) ** 2
    loaded = HelmholtzProblem(grid, w / 2.0, 1e-3, tr[0], load=-(w / 2e-3) * u0[0])
    parts = [u0, _solve(loaded, x0=u0[0], plan=_RedBlackPlan(grid, tr[0]))]
    for scheme in ("picard", "phase_field"):
        final, history, report = run_penalty(grid, trace, PenaltyConfig(1e-3, scheme=scheme, max_outer=12))
        parts += [final.stack(), history, report.meta["stages"]]
    return _sha(*parts)


def penalty_ex41_n51_digest() -> str:
    """The `penalty-ex41` benchmark run: picard, alpha 0.5, ex41 on 51 x 51, eps 1e-2 ... 1e-5."""
    grid = build_grid(51, 51, (-1.0, 1.0, -1.0, 1.0))
    trace = evaluate_bc(builtin_config("ex41"), grid)
    cfg = PenaltyConfig(1e-5, scheme="picard", alpha=0.5)
    final, history, _ = run_penalty(grid, trace, cfg, stages=[1e-2, 1e-3, 1e-4, 1e-5])
    return _sha(final.stack(), [[row["energy"], row["cg_iters"]] for row in history])


def test_library_bytes(case):
    digests = library_digests(*case)
    assert sorted(digests) == sorted(PINS)
    differing = {name: new for name, new in digests.items() if new != PINS[name]}
    assert not differing, "library results differ from their pins:\n" + "\n".join(
        f"  {name}: {new}" for name, new in differing.items()
    )
