"""Byte pins of library solves that the CLI golden artifacts do not reach.

The golden artifacts run the CLI on square grids only.  These pins hash the
results of direct library calls on bc7 over a 13 x 9 grid, where hx != hy:
harmonic extensions, penalized solves with and without a load (through a
plan and through the public call), a zero-weight solve with a load, one
sweep of each public step, and a short continuation run of every scheme.
A refactor keeps every hash; an intended change of bits replaces the entry,
with the reason in CHANGES.md.
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
    "harmonic_extensions": "ae89042435d793aea33ecb14fe6dfbed592bc90d209d0650f5cdab1fa714d75a",
    "plan_solve": "2af3d2049d67c195b65f22a210adda297c817f00fc3de27c984a3cc093bf9de6",
    "plan_solve_with_load": "f507d3385dc8a66aa6b8eb97598a57665686ad1414a4af50ae721dcb7a0204f1",
    "public_solve": "846dc6f9c74e7abaedccc1630e5e4e13369e29cd2f21b2e2fa5b439b39dc8b3f",
    "public_solve_with_load": "c53e0145270ef623d100aedbcadba4a150e252901b723019a870e271c774abe7",
    "zero_weight_solve_with_load": "c7ed605019a64fc11bc2fe79278a1ec0818e06b9931af6c56e3025a3fec85a20",
    "picard_step": "b695c4ca720e8d21c9ba8b8662a0481c38bc787cbb17465bc6dbc3557f6cc916",
    "gauss_seidel_step": "b76829db5834fc28b9af3262e62f13dcf4de1919e723d5f8fceddc9659de52ff",
    "phase_field_step": "c8092a1271442f1caa6d9f5e5e2cee01999609398870881b8ecef162f2a4d410",
    # up to twelve sweeps a stage on eps 1e-2, 1e-3; from the third on, Galerkin starts
    "run_penalty_picard": "ebd53ad2591278c7e059815f1baefa54e1798be01868370ee231f7b3f7de1e00",
    "run_penalty_gauss_seidel": "e8eb7d039fe029720530d6ae879f79784e6f1a85c1e3fc173e5c9fb0c70ec6e2",
    "run_penalty_semi_implicit": "5fab56ee2abef2a84bd078eee1c32ddfcec84c92d01039ed973499195f326bb7",
    "run_penalty_phase_field": "f88ba4a41f9c712f663893d81de50b1f61dfb8deb4363e7299fa0042a4496885",
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
    return out


def test_library_bytes(case):
    digests = library_digests(*case)
    assert sorted(digests) == sorted(PINS)
    differing = {name: new for name, new in digests.items() if new != PINS[name]}
    assert not differing, "library results differ from their pins:\n" + "\n".join(
        f"  {name}: {new}" for name, new in differing.items()
    )
