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
                are the Gauss-Seidel ones, so it runs the undamped
                Gauss-Seidel sweep
  phase_field   solves with the penalty split half-implicit / half-explicit,
                then clips negatives

A run starts all components from their harmonic extensions and continues a
geometrically decreasing ladder of penalty parameters, warm-starting each
stage from the previous.  The sweeps and the loop work on raw (3, ny, nx)
stacks; the loop stops a stage on :func:`segsolve.grid.max_l2_step` and
records one history dict per sweep, which is also the report's history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .boundary import BoundaryTrace, resolve_trace
from .grid import Grid, SystemState, energy_of_stack, l2_norm, max_l2_step, node_weights
from .linear_solver import (
    HelmholtzProblem,
    SolverControls,
    harmonic_extension,
    solve_helmholtz_with_info,
)
from .reporting import SolveReport

__all__ = [
    "PenaltyConfig",
    "PenaltyHistory",
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
    epsilon_start: float = 1e-2
    continuation_factor: float = 0.1
    alpha: float = 0.5
    outer_tol: float = 1e-8
    max_outer: int = 500
    scheme: str = "picard"
    damp_gauss_seidel: bool = False
    inner_rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.epsilon_target <= self.epsilon_start:
            raise ValueError("need 0 < epsilon_target <= epsilon_start")
        if not 0.0 < self.continuation_factor < 1.0:
            raise ValueError("continuation_factor must lie in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("damping alpha must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")

    def stages(self) -> list[float]:
        """Geometric epsilon ladder from epsilon_start down to epsilon_target."""
        ladder = [self.epsilon_start]
        while ladder[-1] > self.epsilon_target * (1.0 + 1e-9):
            ladder.append(max(ladder[-1] * self.continuation_factor, self.epsilon_target))
        return ladder


@dataclass
class PenaltyHistory:
    """History of a run, one dict per sweep.

    Keys: stage_epsilon, iter, scheme, energy, penalty_energy, step_norm,
    cg_iters.  The run's report holds this same list as its history.
    """

    rows: list[dict] = field(default_factory=list)

    def to_jsonl_rows(self) -> list[dict]:
        return self.rows

    def __len__(self) -> int:
        return len(self.rows)


def _solve(grid, w, eps, trace_k, x0, controls, load=None):
    problem = HelmholtzProblem(grid, w, eps, trace_k, load=load)
    fld, info = solve_helmholtz_with_info(problem, controls, x0=x0)
    return fld.values, info.iterations


def _picard_sweep(grid, u, tr, eps, alpha, controls):
    """u is a (3, ny, nx) stack; returns (new stack, cg iteration counts)."""
    weights = ((u[1] * u[2]) ** 2, (u[0] * u[2]) ** 2, (u[0] * u[1]) ** 2)
    out = np.empty_like(u)
    iters = []
    for k in range(3):
        vk, it = _solve(grid, weights[k], eps, tr[k], u[k], controls)
        out[k] = alpha * vk + (1.0 - alpha) * u[k]
        iters.append(it)
    return out, tuple(iters)


def _gauss_seidel_sweep(grid, u, tr, eps, controls, alpha=1.0):
    v1, i1 = _solve(grid, (u[1] * u[2]) ** 2, eps, tr[0], u[0], controls)
    w2 = u[2] ** 2 * (u[0] ** 2 + v1**2) / 2.0
    v2, i2 = _solve(grid, w2, eps, tr[1], u[1], controls)
    w3 = ((u[0] * u[1]) ** 2 + (v1 * v2) ** 2) / 2.0
    v3, i3 = _solve(grid, w3, eps, tr[2], u[2], controls)
    out = np.stack([v1, v2, v3])
    if alpha != 1.0:
        out = alpha * out + (1.0 - alpha) * u
    return out, (i1, i2, i3)


def _semi_implicit_sweep(grid, u, tr, eps, controls):
    """The undamped Gauss-Seidel sweep: its symmetrized coefficients are the same numbers."""
    return _gauss_seidel_sweep(grid, u, tr, eps, controls)


def _phase_field_sweep(grid, u, tr, eps, controls):
    out = np.empty_like(u)
    iters = []
    for k in range(3):
        others = [u[m] for m in range(3) if m != k]
        w = (others[0] * others[1]) ** 2
        load = -(w / (2.0 * eps)) * u[k]
        vk, it = _solve(grid, w / 2.0, eps, tr[k], u[k], controls, load=load)
        out[k] = np.maximum(vk, 0.0)
        iters.append(it)
    return out, tuple(iters)


def picard_step(
    state: SystemState, trace: BoundaryTrace, epsilon: float, alpha: float
) -> SystemState:
    """One damped decoupled sweep: alpha * solve(w_i(u^k)) + (1 - alpha) * u^k."""
    out, _ = _picard_sweep(
        state.grid, state.stack(), trace.phi, epsilon, alpha, SolverControls()
    )
    return SystemState.from_stack(state.grid, out)


def gauss_seidel_step(state: SystemState, trace: BoundaryTrace, epsilon: float) -> SystemState:
    out, _ = _gauss_seidel_sweep(
        state.grid, state.stack(), trace.phi, epsilon, SolverControls()
    )
    return SystemState.from_stack(state.grid, out)


semi_implicit_step = gauss_seidel_step


def phase_field_step(state: SystemState, trace: BoundaryTrace, epsilon: float) -> SystemState:
    out, _ = _phase_field_sweep(
        state.grid, state.stack(), trace.phi, epsilon, SolverControls()
    )
    return SystemState.from_stack(state.grid, out)


def run_penalty(
    grid: Grid,
    bc,
    cfg: PenaltyConfig,
    stages: list[float] | None = None,
    iterate_hook: Callable[[float, int, np.ndarray], None] | None = None,
) -> tuple[SystemState, PenaltyHistory, SolveReport]:
    """Continuation run of the configured scheme over the epsilon ladder.

    bc may be a BoundaryConfig, a builtin id, or an evaluated BoundaryTrace.
    `stages` overrides the geometric ladder (used by the scaling study).
    A non-convergent stage is recorded and its last iterate seeds the next
    stage; inner solver failures propagate.
    """
    t0 = time.perf_counter()
    trace = resolve_trace(bc, grid)
    tr = trace.phi
    controls = SolverControls(rel_tol=cfg.inner_rel_tol)

    u = np.stack([harmonic_extension(grid, tr[k], controls).values for k in range(3)])

    ladder = list(stages) if stages is not None else cfg.stages()
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")

    weights = node_weights(grid)
    history = PenaltyHistory()
    stage_summaries = []
    total_iters = 0
    for eps in ladder:
        converged = False
        iters_this_stage = 0
        for it in range(1, cfg.max_outer + 1):
            if cfg.scheme == "picard":
                new, cg = _picard_sweep(grid, u, tr, eps, cfg.alpha, controls)
            elif cfg.scheme == "gauss_seidel":
                gs_alpha = cfg.alpha if cfg.damp_gauss_seidel else 1.0
                new, cg = _gauss_seidel_sweep(grid, u, tr, eps, controls, alpha=gs_alpha)
            elif cfg.scheme == "semi_implicit":
                new, cg = _semi_implicit_sweep(grid, u, tr, eps, controls)
            else:
                new, cg = _phase_field_sweep(grid, u, tr, eps, controls)

            sn = max_l2_step(weights, new, u)
            u = new
            prod_l2 = l2_norm(grid, u[0] * u[1] * u[2])
            history.rows.append(
                {
                    "stage_epsilon": eps,
                    "iter": it,
                    "scheme": cfg.scheme,
                    "energy": energy_of_stack(grid, u),
                    "penalty_energy": prod_l2**2 / eps,
                    "step_norm": sn,
                    "cg_iters": list(cg),
                }
            )
            if iterate_hook is not None:
                iterate_hook(eps, it, u)
            iters_this_stage = it
            if sn < cfg.outer_tol:
                converged = True
                break
        total_iters += iters_this_stage
        prod_l2 = l2_norm(grid, u[0] * u[1] * u[2])
        stage_summaries.append(
            {
                "epsilon": eps,
                "iterations": iters_this_stage,
                "converged": converged,
                "product_l2": prod_l2,
                "energy": energy_of_stack(grid, u),
            }
        )

    state = SystemState.from_stack(grid, u)
    prod = u[0] * u[1] * u[2]
    report = SolveReport(
        algorithm=f"penalty-{cfg.scheme}",
        bc_id=trace.config_id,
        h=grid.hx,
        iters=total_iters,
        converged=all(s["converged"] for s in stage_summaries),
        final_energy=energy_of_stack(grid, u),
        final_violation_max=float(np.max(np.abs(prod))),
        wall_time_seconds=time.perf_counter() - t0,
        history=history.rows,
        meta={"stages": stage_summaries, "epsilon_target": ladder[-1]},
    )
    return state, history, report
