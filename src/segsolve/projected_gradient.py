"""Projected gradient descent and its accelerated (FISTA) variant.

Both methods perform the explicit heat-flow descent step u + alpha * lap_h(u)
on each component, project pointwise onto the segregation set, and pin the
Dirichlet data back onto the boundary ring.  Iterates therefore satisfy the
constraint exactly at every interior node.

The accelerated variant adds Nesterov momentum with the classic t-sequence,
plus the safeguards used for the benchmark sweep: geometric backtracking on
the cell-based energy surrogate, an optional proximal bias toward the current
iterate before projection, projection hysteresis, and a momentum restart
(t = 1, y = u) when even the smallest step cannot decrease the energy.

Both loops run on raw (3, ny, nx) stacks in buffers allocated once per run
(`_Workspace`); the energy and the step norm are the shared measures of
:mod:`segsolve.grid`, and a `SystemState` is built only for the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .boundary import resolve_trace
from .grid import Grid, SystemState, energy_of_stack, max_l2_step, node_weights
from .linear_solver import harmonic_extension
from .projection import project_and_pin
from .reporting import SolveReport

__all__ = [
    "PgdConfig",
    "FistaConfig",
    "BacktrackResult",
    "stability_limit",
    "next_t",
    "pgd_run",
    "fista_run",
]


def stability_limit(grid: Grid) -> float:
    """Upper bound 1/lambda_max for the explicit step, lambda_max <= 4/hx^2 + 4/hy^2."""
    return 1.0 / (4.0 / grid.hx**2 + 4.0 / grid.hy**2)


def _check_config(cfg) -> None:
    """ValueError for a non-finite float field, tol <= 0 or max_iters < 1."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    if not cfg.tol > 0.0:
        raise ValueError("step-norm tolerance tol must be positive")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")


@dataclass
class PgdConfig:
    alpha: float | None = None  # None: 0.1 * min(hx, hy)^2
    tol: float = 1e-8
    max_iters: int = 50000

    def __post_init__(self):
        _check_config(self)

    def resolve_alpha(self, grid: Grid) -> float:
        alpha = self.alpha
        if alpha is None:
            alpha = 0.1 * min(grid.hx, grid.hy) ** 2
        if not alpha > 0.0:
            raise ValueError("step size must be positive")
        if alpha >= stability_limit(grid) * (1.0 + 1e-9):
            raise ValueError(
                f"step size {alpha:g} violates the stability bound "
                f"{stability_limit(grid):g}"
            )
        return alpha


@dataclass
class FistaConfig:
    alpha0: float | None = None  # None: 0.03 * h^2
    alpha_min: float | None = None  # None: 1e-5 * h^2
    rho: float = 0.5
    eta: float = 0.2
    tau: float = 1e-10
    tol: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        _check_config(self)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("shrink factor rho must lie in (0, 1)")
        if self.eta < 0.0:
            raise ValueError("proximal bias eta must be >= 0")
        if self.tau < 0.0:
            raise ValueError("hysteresis tau must be >= 0")

    def resolve_alphas(self, grid: Grid) -> tuple[float, float]:
        h2 = min(grid.hx, grid.hy) ** 2
        a0 = self.alpha0 if self.alpha0 is not None else 0.03 * h2
        amin = self.alpha_min if self.alpha_min is not None else 1e-5 * h2
        if not 0.0 < amin <= a0:
            raise ValueError("need 0 < alpha_min <= alpha0")
        return a0, amin


def next_t(t: float) -> float:
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


class _Workspace:
    """Preallocated buffers for the iteration loops on one grid and trace.

    The step, projection, energy, step norm and violation match plain array
    expressions bit for bit: the step the three-coefficient stencil of
    `step_into`, the energy the einsum cell sums of
    :func:`segsolve.grid.energy_of_stack`.  The reference loops of
    `tests/test_projected_gradient.py` (`TestReferenceLoops`, and the
    first-step tests of `TestFistaRun`) pin every iterate and history row
    with those expressions written out.  Every pass but the energy's sums
    runs on contiguous memory, which at the benchmark sizes costs less than
    the strided interior views:
    - the stencil and the projection sweep the whole (3, ny, nx) stack as
      one run; the boundary ring this spoils is re-pinned to the trace after
      the projection;
    - the energy forms its differences on the flat stack and sums the cell
      entries of each in one einsum over a strided view, without a copy;
    - the projection zeroes each component from preallocated boolean masks
      and builds the index array only for callers that read it.
    """

    def __init__(self, grid: Grid, tr: np.ndarray):
        self.grid = grid
        self.tr = tr
        self.weights = node_weights(grid)
        self.diff = np.empty(tr.shape)
        self.weighted = np.empty(tr.shape)
        self.hx2 = grid.hx**2
        self.hy2 = grid.hy**2
        nx = grid.nx
        # flat nodes whose four neighbours lie in the stack: the first and
        # last node of the span are interior, everything outside it is ring
        self.span = slice(nx + 1, 3 * grid.ny * nx - nx - 1)
        self.shifts = (nx + 2, nx, 2 * nx + 1, 1)  # right, left, down, up
        self.tmp = np.empty(self.span.stop - self.span.start)
        self.energy_work = np.empty((2, tr.size))
        self.prod = np.empty(grid.shape)
        # the projection's threshold plane is scratch within one call, like prod
        self.project_work = (np.empty(tr.shape, bool), np.empty(tr.shape, bool), self.prod)

    def step_into(self, out, y, alpha, u=None, eta=0.0):
        """out <- y + alpha * lap_h(y), then (. + eta*u)/(1 + eta) if eta > 0.

        Evaluated as the three-coefficient stencil
        ((down + up)*k2 + (left + right)*k1) + c*k0, plus u*k3 with the bias,
        where k1 = alpha/hx^2, k2 = alpha/hy^2 and k0 = 1 - 2*k1 - 2*k2; with
        the bias, k0, k1 and k2 are scaled by s = 1/(1 + eta) and k3 = eta*s.
        Exact at interior nodes; ring nodes of `out` hold junk until
        `project_and_pin` re-pins them.  `out` must not share memory with `y`
        or `u`.
        """
        k1 = alpha / self.hx2
        k2 = alpha / self.hy2
        k0 = 1.0 - 2.0 * k1 - 2.0 * k2
        if eta > 0.0:
            scale = 1.0 / (1.0 + eta)
            k0, k1, k2 = k0 * scale, k1 * scale, k2 * scale
        f = y.reshape(-1, copy=False)
        length = self.tmp.size
        right, left, down, up = (f[s : s + length] for s in self.shifts)
        o = out.reshape(-1, copy=False)[self.span]
        t = self.tmp
        np.add(left, right, out=t)
        np.multiply(t, k1, out=t)
        np.add(down, up, out=o)
        np.multiply(o, k2, out=o)
        np.add(o, t, out=o)
        np.multiply(f[self.span], k0, out=t)
        np.add(o, t, out=o)
        if eta > 0.0:
            np.multiply(u.reshape(-1, copy=False)[self.span], eta * scale, out=t)
            np.add(o, t, out=o)

    def project(self, out, prev_k=None, tau=0.0, indices=True):
        """`project_and_pin` of `out` with this workspace's buffers."""
        return project_and_pin(out, self.tr, prev_k, tau, self.project_work, indices)

    def energy(self, u) -> float:
        return energy_of_stack(self.grid, u, self.energy_work)

    def step_norm(self, a, b) -> float:
        return max_l2_step(self.weights, a, b, (self.diff, self.weighted))

    def violation_max(self, u) -> float:
        """max |u1 * u2 * u3| over all nodes."""
        p = self.prod
        np.multiply(u[0], u[1], out=p)
        np.multiply(p, u[2], out=p)
        np.abs(p, out=p)
        return float(np.max(p))


def _initial_state(ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Projected harmonic extensions with the trace pinned on the boundary.

    Returns the stack and its (ny, nx) assignment, as `project_and_pin` does.
    """
    u = np.stack([harmonic_extension(ws.grid, ws.tr[k]).values for k in range(3)])
    return u, ws.project(u)


def _result(ws, algorithm, trace, u, iters, converged, t0, history, meta):
    """The (state, report) of a finished loop; the final energy and violation are measured on u."""
    report = SolveReport(
        algorithm=algorithm,
        bc_id=trace.config_id,
        h=ws.grid.hx,
        iters=iters,
        converged=converged,
        final_energy=ws.energy(u),
        final_violation_max=ws.violation_max(u),
        wall_time_seconds=time.perf_counter() - t0,
        history=history,
        meta=meta,
    )
    return SystemState.from_stack(ws.grid, u), report


def pgd_run(grid: Grid, bc, cfg: PgdConfig | None = None) -> tuple[SystemState, SolveReport]:
    """Plain projected gradient descent with fixed step size."""
    cfg = cfg or PgdConfig()
    t0 = time.perf_counter()
    trace = resolve_trace(bc, grid)
    tr = trace.phi
    alpha = cfg.resolve_alpha(grid)

    ws = _Workspace(grid, tr)
    u, _ = _initial_state(ws)
    new = np.empty_like(u)
    history = []
    converged = False
    iters = 0
    for k in range(cfg.max_iters):
        ws.step_into(new, u, alpha)
        ws.project(new, indices=False)
        step = ws.step_norm(new, u)
        u, new = new, u
        iters = k + 1
        history.append(
            {
                "iter": iters,
                "energy": ws.energy(u),
                "step_norm": step,
                "violation_max": ws.violation_max(u),
                "pg_residual": step / alpha,
            }
        )
        if step < cfg.tol:
            converged = True
            break

    meta = {"alpha": alpha, "tol": cfg.tol}
    return _result(ws, "pgd", trace, u, iters, converged, t0, history, meta)


@dataclass
class BacktrackResult:
    values: np.ndarray  # candidate stack, feasible, boundary pinned
    assignment: np.ndarray  # (ny, nx) 1-based zeroed indices, meaningless on the ring
    alpha: float
    energy: float
    needs_restart: bool
    shrinks: int


def _backtrack(ws, out, y, u, alpha, current_energy, cfg, alpha_min, prev_k):
    """Shrink the trial step until the candidate energy does not exceed current_energy.

    Trial steps start at `alpha` and shrink geometrically by cfg.rho with
    floor alpha_min; if even the floor candidate increases the energy it is
    returned flagged for a momentum restart.  Each trial candidate is
    written into `out`; prev_k and the returned assignment are (ny, nx)
    index arrays.
    """
    shrinks = 0
    a = alpha
    while True:
        ws.step_into(out, y, a, u, cfg.eta)
        k = ws.project(out, prev_k, cfg.tau)
        energy = ws.energy(out)
        if energy <= current_energy:
            return BacktrackResult(out, k, a, energy, False, shrinks)
        if a <= alpha_min * (1.0 + 1e-12):
            return BacktrackResult(out, k, a, energy, True, shrinks)
        a = max(cfg.rho * a, alpha_min)
        shrinks += 1


def fista_run(grid: Grid, bc, cfg: FistaConfig | None = None) -> tuple[SystemState, SolveReport]:
    """Accelerated projected gradient with backtracking, bias, hysteresis, restart."""
    cfg = cfg or FistaConfig()
    t0 = time.perf_counter()
    trace = resolve_trace(bc, grid)
    tr = trace.phi
    alpha0, alpha_min = cfg.resolve_alphas(grid)

    ws = _Workspace(grid, tr)
    u, k_prev = _initial_state(ws)
    energy_u = ws.energy(u)
    t = 1.0  # Nesterov t-sequence
    y = u.copy()  # extrapolated point
    cand = np.empty_like(u)  # trial buffer, swapped with u on acceptance
    alpha = alpha0
    history = []
    converged = False
    iters = 0
    restarts = 0

    for k in range(cfg.max_iters):
        iters = k + 1
        bt = _backtrack(ws, cand, y, u, alpha, energy_u, cfg, alpha_min, k_prev)
        if bt.needs_restart:
            # discard the candidate; restart momentum from the current iterate
            t = 1.0
            np.copyto(y, u)
            alpha = alpha0
            restarts += 1
            history.append(
                {
                    "iter": iters,
                    "energy": energy_u,
                    "step_norm": None,
                    "violation_max": ws.violation_max(u),
                    "alpha": bt.alpha,
                    "restarted": True,
                }
            )
            continue

        step = ws.step_norm(cand, u)
        t_new = next_t(t)
        beta = (t - 1.0) / t_new
        np.subtract(cand, u, out=y)  # y <- cand + beta * (cand - u)
        np.multiply(y, beta, out=y)
        np.add(cand, y, out=y)
        t = t_new
        u, cand = cand, u
        k_prev = bt.assignment
        energy_u = bt.energy
        alpha = bt.alpha
        history.append(
            {
                "iter": iters,
                "energy": energy_u,
                "step_norm": step,
                "violation_max": ws.violation_max(u),
                "alpha": alpha,
                "restarted": False,
            }
        )
        if step < cfg.tol:
            converged = True
            break

    meta = {"alpha0": alpha0, "rho": cfg.rho, "eta": cfg.eta, "tau": cfg.tau, "tol": cfg.tol,
            "restarts": restarts}
    return _result(ws, "fista", trace, u, iters, converged, t0, history, meta)
