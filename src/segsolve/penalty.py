"""Penalization schemes for the segregation constraint.

The product constraint is replaced by a (1/eps) * integral (u1 u2 u3)^2
penalty, whose stationarity system couples three weighted Helmholtz problems
through the squared-pair weights

    w1 = (u2 u3)^2,   w2 = (u1 u3)^2,   w3 = (u1 u2)^2.

Four fixed-point sweeps are provided:

  picard        decoupled solves against the previous iterate, then convex
                damping u <- alpha * solve + (1 - alpha) * u
  gauss_seidel  sequential solves; later components average the previous and
                freshly updated squares of earlier components
  semi_implicit the symmetrized-coefficient variant; its averaged coefficients
                are the Gauss-Seidel ones, so it runs the Gauss-Seidel sweep
  phase_field   solves with the penalty split half-implicit / half-explicit,
                clips negatives, then damps like picard:
                u <- alpha * max(solve, 0) + (1 - alpha) * u

The two sequential sweeps damp like picard too, u <- alpha * sweep +
(1 - alpha) * u; `PenaltyConfig.alpha` damps every scheme, and defaults to 1
(undamped) for gauss_seidel and semi_implicit and to 0.5 for the others.

A run starts all components from their harmonic extensions, which it
solves on its own plans (below), and continues a geometrically decreasing
ladder of penalty parameters, warm-starting each stage from the previous.
The sweeps and the loop work on raw (3, ny, nx) stacks; all sweeps take
(u, eps, alpha, plans), and `run_penalty` picks the sweep once per run.
The Picard sweep forms each weight in the row of its new stack that the
damped solution then fills, and the loop forms the product u1 u2 u3 and its
weighted square in two arrays allocated once per run; the operations and
their order are those of the plain expressions, so the bits are too.  The
loop's scratch arrays start on 64-byte cache lines
(:func:`segsolve.grid.aligned_empty`).
The loop stops a stage on :func:`segsolve.grid.max_l2_step`; its history is
a plain list of one dict per sweep, which is also the report's history.
Each stage summary holds the values of the stage's last sweep, the sum and
the largest of its rows' `cg_iters` (`cg_iterations`, `cg_max`) and the
operator passes of its CG starts (`start_applies`), which no row holds.

CG starts (Fischer, Comput. Methods Appl. Mech. Engrg. 163, 1998): the three
Helmholtz answers change slowly from sweep to sweep.  `run_penalty` builds
one red-black plan per component trace (see :mod:`segsolve.linear_solver`;
the three share their buffers), and the plans are the whole solver set-up a
sweep gets: every solve of a component goes through its plan, which records
the trace, keeps the stage's solutions and is cleared at each new eps.  The
first two sweeps of a stage start from the iterate u.  From the third on, CG
starts from the last solution plus the Galerkin correction in the span of
the steps between the last (up to four) solutions: the start that is best
in the energy norm of the current operator over that span.  The public
single-sweep functions build such plans for their one sweep; each keeps a
single solution, so CG starts from u.  Only the start moves: every solve
still runs to the CG tolerance :data:`segsolve.linear_solver.REL_TOL` under
the same stopping test, so its answer differs from a cold start's only
within that tolerance, and the discrete maximum principle the solves obey
holds as before.  The saving is CG iterations, about half of those of the earlier
secant starts on ex41 with picard; each stage summary also counts the
operator passes the starts spent (`start_applies`).  Loosening the inner
tolerance instead saves as much but gives up the maximum principle:
iterates then go negative by far more than rounding.

Where inputs are checked: `run_penalty` checks its epsilon ladder and the
plans check the run's trace, once per run.  Each solve poses the plan's own
problem (`_RedBlackPlan.pose`), which checks only that solve's weight,
epsilon and load, with the messages of
:class:`segsolve.linear_solver.HelmholtzProblem`, and runs through the
module name `solve_helmholtz_with_info`, so wrappers installed on it see
every solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import BoundaryTrace, resolve_trace
from .grid import (Grid, SystemState, aligned_empty, check_fields, energy_of_stack, energy_work,
                   max_l2_step, node_weights)
from .linear_solver import _RedBlackPlan, solve_helmholtz_with_info
from .reporting import SolveReport

__all__ = [
    "PenaltyConfig",
    "SCHEMES",
    "picard_step",
    "gauss_seidel_step",
    "semi_implicit_step",
    "phase_field_step",
    "run_penalty",
]

SCHEMES = ("picard", "gauss_seidel", "semi_implicit", "phase_field")


@dataclass
class PenaltyConfig:
    epsilon_target: float
    epsilon_start: float | None = None  # None: max(1e-2, epsilon_target)
    continuation_factor: float = 0.1
    alpha: float | None = None  # None: 1.0 for gauss_seidel and semi_implicit, else 0.5
    outer_tol: float = 1e-8
    max_outer: int = 500
    scheme: str = "picard"

    def __post_init__(self):
        # before the defaults: an infinite target is named, not the start resolved from it
        check_fields(self)
        if self.epsilon_start is None:
            self.epsilon_start = max(1e-2, self.epsilon_target)
        if self.alpha is None:
            self.alpha = 1.0 if self.scheme in ("gauss_seidel", "semi_implicit") else 0.5
        if not 0.0 < self.epsilon_target <= self.epsilon_start:
            raise ValueError("need 0 < epsilon_target <= epsilon_start")
        if not 0.0 < self.continuation_factor < 1.0:
            raise ValueError("continuation_factor must lie in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("damping alpha must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")

    def stages(self) -> list[float]:
        """Geometric epsilon ladder from epsilon_start down to epsilon_target."""
        ladder = [self.epsilon_start]
        while ladder[-1] > self.epsilon_target * (1.0 + 1e-9):
            ladder.append(max(ladder[-1] * self.continuation_factor, self.epsilon_target))
        return ladder


def _plans(grid, tr):
    """One red-black plan per component trace; the three share their buffers."""
    plans = [_RedBlackPlan(grid, tr[0])]
    return plans + [plans[0].sibling(tr[k]) for k in (1, 2)]


def _solve(plan, w, eps, x0, load=None):
    """One solve of the plan's own problem, which the plan keeps for the next starts.

    Only w, eps and the load are checked; the call goes through the module
    name, so that wrappers installed on it see every solve.
    """
    fld, info = solve_helmholtz_with_info(plan.pose(w, eps, load), x0=x0, plan=plan)
    plan.keep()
    return fld.values, info


# Every sweep takes the (3, ny, nx) iterate u, the damping weight alpha and
# the run's red-black plans, one per component, and returns (new stack,
# SolveInfo of each solve).  CG starts from u, or from the plan's kept
# solutions once it holds two.
_PAIRS = ((1, 2), (0, 2), (0, 1))  # component k's weight is (u_i u_j)^2, (i, j) = _PAIRS[k]


def _picard_sweep(u, eps, alpha, plans):
    out = np.empty_like(u)
    infos = []
    for k, (i, j) in enumerate(_PAIRS):
        # the weight (u_i u_j)^2 lives in the row its damped solution then fills
        w = np.square(np.multiply(u[i], u[j], out[k]), out[k])
        v, info = _solve(plans[k], w, eps, u[k])
        np.add(np.multiply(v, alpha, v), np.multiply(u[k], 1.0 - alpha, w), w)
        infos.append(info)
    return out, infos


def _sequential_solves(u, eps, alpha, plans):
    v1, i1 = _solve(plans[0], (u[1] * u[2]) ** 2, eps, u[0])
    w2 = u[2] ** 2 * (u[0] ** 2 + v1**2) / 2.0
    v2, i2 = _solve(plans[1], w2, eps, u[1])
    w3 = ((u[0] * u[1]) ** 2 + (v1 * v2) ** 2) / 2.0
    v3, i3 = _solve(plans[2], w3, eps, u[2])
    v = np.stack([v1, v2, v3])
    out = v if alpha == 1.0 else alpha * v + (1.0 - alpha) * u
    return out, [i1, i2, i3]


def _gauss_seidel_sweep(u, eps, alpha, plans):
    return _sequential_solves(u, eps, alpha, plans)


def _semi_implicit_sweep(u, eps, alpha, plans):
    """The Gauss-Seidel sweep: its symmetrized coefficients are the same numbers.

    A def of its own rather than an alias of `_gauss_seidel_sweep`, so that a
    tracer wrapping each sweep name records one span per sweep.
    """
    return _sequential_solves(u, eps, alpha, plans)


def _phase_field_sweep(u, eps, alpha, plans):
    out = np.empty_like(u)
    infos = []
    for k, (i, j) in enumerate(_PAIRS):
        w = (u[i] * u[j]) ** 2
        load = -(w / (2.0 * eps)) * u[k]
        v, info = _solve(plans[k], w / 2.0, eps, u[k], load=load)
        out[k] = alpha * np.maximum(v, 0.0) + (1.0 - alpha) * u[k]
        infos.append(info)
    return out, infos


def _step(sweep, state, trace, eps, alpha=1.0):
    """One sweep from state on fresh plans; each keeps one solution, so CG starts from u."""
    out, _ = sweep(state.stack(), eps, alpha, _plans(state.grid, trace.phi))
    return SystemState.from_stack(state.grid, out)


def picard_step(
    state: SystemState, trace: BoundaryTrace, epsilon: float, alpha: float
) -> SystemState:
    """One damped decoupled sweep: alpha * solve(w_i(u^k)) + (1 - alpha) * u^k."""
    return _step(_picard_sweep, state, trace, epsilon, alpha)


def gauss_seidel_step(state: SystemState, trace: BoundaryTrace, epsilon: float) -> SystemState:
    return _step(_gauss_seidel_sweep, state, trace, epsilon)


semi_implicit_step = gauss_seidel_step


def phase_field_step(state: SystemState, trace: BoundaryTrace, epsilon: float) -> SystemState:
    """One undamped phase-field sweep; `run_penalty` damps it with `alpha`."""
    return _step(_phase_field_sweep, state, trace, epsilon)


def run_penalty(
    grid: Grid,
    bc,
    cfg: PenaltyConfig,
    stages: list[float] | None = None,
    iterate_hook: Callable[[float, int, np.ndarray], None] | None = None,
) -> tuple[SystemState, list[dict], SolveReport]:
    """Continuation run of the configured scheme over the epsilon ladder.

    Returns (state, history rows, report), where the rows (keys
    stage_epsilon, iter, scheme, energy, penalty_energy, step_norm,
    cg_iters) are `report.history` itself.  bc may be a BoundaryConfig, a
    builtin id, or an evaluated BoundaryTrace.  `stages` overrides the
    geometric ladder (used by the scaling study).  A non-convergent stage is
    recorded and its last iterate seeds the next stage; inner solver
    failures propagate.
    """
    ladder = list(stages) if stages is not None else cfg.stages()
    if not ladder or not all(np.isfinite(eps) and eps > 0.0 for eps in ladder):
        raise ValueError("epsilon ladder must be nonempty, with positive finite values")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")

    t0 = time.perf_counter()
    trace = resolve_trace(bc, grid)
    tr = trace.phi
    plans = _plans(grid, tr)
    zero = np.zeros(grid.shape)
    u = np.stack([_solve(plan, zero, 1.0, None)[0] for plan in plans])  # harmonic extensions

    # looked up per run, so that wrappers installed on the module names apply
    sweep = {
        "picard": _picard_sweep,
        "gauss_seidel": _gauss_seidel_sweep,
        "semi_implicit": _semi_implicit_sweep,
        "phase_field": _phase_field_sweep,
    }[cfg.scheme]

    weights = node_weights(grid)
    work = energy_work(grid)  # the step norm's difference, then the energy's differences
    prod, sq = aligned_empty(grid.shape), aligned_empty(grid.shape)  # u1 u2 u3, its weighted square
    history = []
    stage_summaries = []
    for eps in ladder:
        start_applies = 0
        for plan in plans:
            plan.clear()  # starts project on this stage's solutions only
        for it in range(1, cfg.max_outer + 1):
            new, infos = sweep(u, eps, cfg.alpha, plans)
            start_applies += sum(info.start_applies for info in infos)

            sn = max_l2_step(weights, new, u, work[0, : u.size].reshape(u.shape))
            u = new
            np.multiply(np.multiply(u[0], u[1], prod), u[2], prod)
            np.multiply(np.multiply(weights, prod, sq), prod, sq)
            prod_l2 = math.sqrt(sq.sum())  # grid.l2_norm's bits
            energy = energy_of_stack(grid, u, work)
            history.append(
                {
                    "stage_epsilon": eps,
                    "iter": it,
                    "scheme": cfg.scheme,
                    "energy": energy,
                    "penalty_energy": prod_l2**2 / eps,
                    "step_norm": sn,
                    "cg_iters": [info.iterations for info in infos],
                }
            )
            if iterate_hook is not None:
                iterate_hook(eps, it, u)
            if sn < cfg.outer_tol:
                break
        cg = [row["cg_iters"] for row in history[-it:]]  # the stage's rows
        stage_summaries.append(
            {
                "epsilon": eps,
                "iterations": it,
                "converged": sn < cfg.outer_tol,
                "product_l2": prod_l2,
                "energy": energy,
                "cg_iterations": sum(map(sum, cg)),
                "cg_max": max(map(max, cg)),
                "start_applies": start_applies,
            }
        )

    report = SolveReport(
        algorithm=f"penalty-{cfg.scheme}",
        bc_id=trace.config_id,
        h=grid.hx,
        iters=len(history),
        converged=all(s["converged"] for s in stage_summaries),
        final_energy=energy,
        final_violation_max=float(np.max(np.abs(prod))),
        wall_time_seconds=time.perf_counter() - t0,
        history=history,
        meta={"stages": stage_summaries, "epsilon_target": ladder[-1]},
    )
    return SystemState.from_stack(grid, u), history, report
