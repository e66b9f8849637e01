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

Both loops run on raw (3, ny, nx) stacks in buffers allocated once per run,
each with the views its kernels read built once beside it (`_Workspace`):
no kernel reshapes or slices per call.  The energy and the step norm are
the shared measures of :mod:`segsolve.grid` (the step norm one subtract and
one einsum), and a `SystemState` is built only for the result.
The hysteresis state is the (3, ny, nx) boolean zero mask of the last
accepted projection, as :func:`segsolve.projection.project_and_pin`
returns it: the mask of the accepted iterate's buffer, which the next
projection, written into another buffer's own mask, reads as prev.

Each loop appends one history row per iteration, its only record of it:
the report's `iters` counts the rows, and FISTA's `restarts` the rows
marked `restarted`, which keep the iterate's energy, the floor trial's
`alpha` and `step_norm` None.  The history is a
:class:`segsolve.reporting.History`, which stores the rows as columns and
builds each row dict when it is read.

The `violation_max` column of the history is measured once per run, on the
initial iterate, and copied into every row.  That is exact for finite
iterates: every iterate, the initial one included, leaves
`project_and_pin`, which zeroes one component exactly at every node, so
the product u1*u2*u3 is 0.0 at every interior node, and pins the ring to
the same trace.  The final iterate is still measured for the report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .boundary import resolve_trace
from .grid import (Grid, SystemState, aligned_empty, check_fields, energy_of_stack, energy_views,
                   energy_work, max_l2_step, node_weights)
from .linear_solver import harmonic_extension
from .projection import project_and_pin, projection_views
from .reporting import History, SolveReport

__all__ = [
    "PgdConfig",
    "FistaConfig",
    "BacktrackResult",
    "stability_limit",
    "next_t",
    "pgd_run",
    "fista_run",
]


TIE = 1e-9  # relative gap below which the initial projection treats positive parts as tied


def stability_limit(grid: Grid) -> float:
    """Upper bound 1/lambda_max for the explicit step, lambda_max <= 4/hx^2 + 4/hy^2."""
    return 1.0 / (4.0 / grid.hx**2 + 4.0 / grid.hy**2)


def _check_config(cfg) -> None:
    """ValueError for a field :func:`segsolve.grid.check_fields` rejects, or tol <= 0."""
    check_fields(cfg)
    if not cfg.tol > 0.0:
        raise ValueError("step-norm tolerance tol must be positive")


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
    return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0


class _Buffer:
    """One (3, ny, nx) loop buffer and the views of it that the kernels read.

    On the stack read as one flat C-ordered run: `windows` are its right,
    left, down and up neighbour windows of the stencil, and `centre` the
    span they are centred on (the span `step_into` writes); `energy` is the
    :func:`segsolve.grid.energy_views` of the stack, and `project` its
    :func:`segsolve.projection.projection_views` record, which owns the
    buffer's zero mask.  Built once per run by `_Workspace.buffer`.
    """

    __slots__ = ("stack", "windows", "centre", "energy", "project")


class _Workspace:
    """Preallocated buffers and views for the iteration loops on one grid and trace.

    Everything a kernel reads is built once per run: the scratch arrays
    here, the spacings as plain floats, and for each loop buffer (PGD's u
    and new, FISTA's u, cand and y) the views of `buffer`.  The kernels
    then reshape, slice and look up nothing per call; they take buffers, not
    arrays, and the loops swap buffers as they swapped arrays.

    The step, projection, energy, step norm and violation match plain array
    expressions bit for bit: the step the three-coefficient stencil of
    `step_into`, the energy the einsum cell sums of
    :func:`segsolve.grid.energy_of_stack`, the step norm the two-pass einsum
    of :func:`segsolve.grid.max_l2_step`.  The reference loops of
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
    - each buffer owns its mask: the projection of a buffer zeroes each
      component from the buffer's preallocated boolean zero mask, which is
      also the hysteresis state FISTA carries.  The accepted iterate's mask
      is prev, and the trials write their candidate buffer's own, so it
      survives them and passes to the next buffer on acceptance, with the
      swap.  All records share one scratch mask and one threshold plane.

    Alignment: every array here, each loop buffer's stack and each record's
    masks start on a 64-byte cache line (:func:`segsolve.grid.aligned_empty`).
    The stacks stay contiguous (3, ny, nx) blocks, which the flat-stack
    kernels need; the two rows of `energy_work`, which no kernel reads as
    one operand, are padded so that each starts on a line too.
    """

    def __init__(self, grid: Grid, tr: np.ndarray):
        self.grid = grid
        self.tr = tr
        self.weights = node_weights(grid)
        self.diff = aligned_empty(tr.shape)
        self.hx2 = grid.hx**2
        self.hy2 = grid.hy**2
        nx = grid.nx
        # flat nodes whose four neighbours lie in the stack: the first and
        # last node of the span are interior, everything outside it is ring
        self.span = slice(nx + 1, 3 * grid.ny * nx - nx - 1)
        self.shifts = (nx + 2, nx, 2 * nx + 1, 1)  # right, left, down, up
        self.tmp = aligned_empty(self.span.stop - self.span.start)
        self.energy_work = energy_work(grid)
        self.prod = aligned_empty(grid.ny * nx)
        # the projection's scratch mask and threshold plane are scratch within one call, like prod
        self.keep = aligned_empty(tr.shape, bool)
        self.thr = self.prod.reshape(grid.shape)

    def buffer(self, values: np.ndarray | None = None) -> _Buffer:
        """A loop buffer on a fresh aligned (3, ny, nx) stack, holding a copy of `values` if given."""
        buf = _Buffer()
        buf.stack = stack = aligned_empty(self.tr.shape)
        if values is not None:
            np.copyto(stack, values)
        f = stack.reshape(-1, copy=False)
        length = self.tmp.size
        buf.windows = tuple(f[s : s + length] for s in self.shifts)
        buf.centre = f[self.span]
        buf.energy = energy_views(self.grid, stack, self.energy_work)
        buf.project = projection_views(stack, self.tr, self.keep, self.thr)
        return buf

    def step_into(self, out: _Buffer, y: _Buffer, alpha, u: _Buffer | None = None, eta=0.0):
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
        right, left, down, up = y.windows
        o = out.centre
        t = self.tmp
        np.add(left, right, out=t)
        np.multiply(t, k1, out=t)
        np.add(down, up, out=o)
        np.multiply(o, k2, out=o)
        np.add(o, t, out=o)
        np.multiply(y.centre, k0, out=t)
        np.add(o, t, out=o)
        if eta > 0.0:
            np.multiply(u.centre, eta * scale, out=t)
            np.add(o, t, out=o)

    def energy(self, u: _Buffer) -> float:
        return energy_of_stack(self.grid, u.stack, u.energy)

    def step_norm(self, a: _Buffer, b: _Buffer) -> float:
        return max_l2_step(self.weights, a.stack, b.stack, self.diff)

    def violation_max(self, u: _Buffer) -> float:
        """max |u1 * u2 * u3| over all nodes."""
        u1, u2, u3 = u.stack.reshape(3, -1)
        p = self.prod
        np.multiply(u1, u2, out=p)
        np.multiply(p, u3, out=p)
        np.abs(p, out=p)
        return float(np.maximum.reduce(p))


def _initial_state(ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Projected harmonic extensions with the trace pinned on the boundary.

    The projection settles ties by rule: a positive part within TIE times
    the node's largest positive part of the smallest is tied with it, and
    the smallest tied index is zeroed.  Symmetric data give the extensions
    such ties, which otherwise rounding breaks, and no measured run from
    this start has moved the zero mask they choose.  Returns the stack and
    its (3, ny, nx) zero mask, as `project_and_pin` does; the stack and
    the mask are fresh arrays, projected through a record built here, so
    the first projection of a loop reads the mask as prev from no buffer.
    """
    u = np.stack([harmonic_extension(ws.grid, ws.tr[k]).values for k in range(3)])
    p = np.maximum(u, 0.0)
    tied = p <= p.min(axis=0) + TIE * p.max(axis=0)
    zero = np.arange(3)[:, None, None] == tied.argmax(axis=0)  # the first tied index
    # hysteresis that keeps the previous phase at any gap zeroes exactly `zero`
    return u, project_and_pin(projection_views(u, ws.tr), zero, math.inf)


def _result(ws, algorithm, trace, u, converged, t0, history, meta):
    """The (state, report) of a finished loop: `iters` counts the history rows, and the
    final energy and violation are measured on buffer u."""
    report = SolveReport(
        algorithm=algorithm,
        bc_id=trace.config_id,
        h=ws.grid.hx,
        iters=len(history),
        converged=converged,
        final_energy=ws.energy(u),
        final_violation_max=ws.violation_max(u),
        wall_time_seconds=time.perf_counter() - t0,
        history=history,
        meta=meta,
    )
    return SystemState.from_stack(ws.grid, u.stack), report


def pgd_run(grid: Grid, bc, cfg: PgdConfig | None = None) -> tuple[SystemState, SolveReport]:
    """Plain projected gradient descent with fixed step size."""
    cfg = cfg or PgdConfig()
    t0 = time.perf_counter()
    trace = resolve_trace(bc, grid)
    tr = trace.phi
    alpha = cfg.resolve_alpha(grid)

    ws = _Workspace(grid, tr)
    u0, _ = _initial_state(ws)
    u, new = ws.buffer(u0), ws.buffer()
    violation = ws.violation_max(u)  # every iterate's, bit for bit (module docstring)
    history = History(iter="q", energy="d", step_norm="d", violation_max=violation, pg_residual="d")
    converged = False
    for k in range(cfg.max_iters):
        ws.step_into(new, u, alpha)
        project_and_pin(new.project)
        step = ws.step_norm(new, u)
        u, new = new, u
        history.append(k + 1, ws.energy(u), step, step / alpha)
        if step < cfg.tol:
            converged = True
            break

    meta = {"alpha": alpha, "tol": cfg.tol}
    return _result(ws, "pgd", trace, u, converged, t0, history, meta)


@dataclass
class BacktrackResult:
    assignment: np.ndarray  # (3, ny, nx) zero mask, meaningless on the ring
    alpha: float
    energy: float
    needs_restart: bool
    shrinks: int


def _backtrack(ws, out, y, u, alpha, current_energy, cfg, alpha_min, prev):
    """Shrink the trial step until the candidate energy does not exceed current_energy.

    Trial steps start at `alpha` and shrink geometrically by cfg.rho with
    floor alpha_min; if even the floor candidate increases the energy it is
    returned flagged for a momentum restart.  out, y and u are the
    workspace's buffers, and each trial candidate is written into `out`;
    prev and the returned assignment are (3, ny, nx) zero masks, the
    assignment in out's own mask.
    """
    shrinks = 0
    a = alpha
    while True:
        ws.step_into(out, y, a, u, cfg.eta)
        mask = project_and_pin(out.project, prev, cfg.tau)
        energy = ws.energy(out)
        if energy <= current_energy:
            return BacktrackResult(mask, a, energy, False, shrinks)
        if a <= alpha_min * (1.0 + 1e-12):
            return BacktrackResult(mask, a, energy, True, shrinks)
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
    u0, mask = _initial_state(ws)
    u = ws.buffer(u0)
    energy_u = ws.energy(u)
    violation = ws.violation_max(u)  # every iterate's, bit for bit (module docstring)
    t = 1.0  # Nesterov t-sequence
    y = ws.buffer(u0)  # extrapolated point
    cand = ws.buffer()  # trial buffer, swapped with u on acceptance
    alpha = alpha0
    history = History(iter="q", energy="d", step_norm=list, violation_max=violation, alpha="d",
                      restarted=list)
    converged = False

    for k in range(cfg.max_iters):
        bt = _backtrack(ws, cand, y, u, alpha, energy_u, cfg, alpha_min, mask)
        if bt.needs_restart:
            # discard the candidate; restart momentum from the current iterate
            t = 1.0
            np.copyto(y.stack, u.stack)
            alpha = alpha0
            step = None
        else:
            step = ws.step_norm(cand, u)
            t_new = next_t(t)
            beta = (t - 1.0) / t_new
            # y <- cand + beta * (cand - u), reading cand - u from ws.diff, where step_norm left it
            np.multiply(ws.diff, beta, out=y.stack)
            np.add(cand.stack, y.stack, out=y.stack)
            t = t_new
            u, cand = cand, u
            mask = bt.assignment
            energy_u = bt.energy
            alpha = bt.alpha
        history.append(k + 1, energy_u, step, bt.alpha, bt.needs_restart)
        if step is not None and step < cfg.tol:
            converged = True
            break

    meta = {"alpha0": alpha0, "rho": cfg.rho, "eta": cfg.eta, "tau": cfg.tau, "tol": cfg.tol,
            "restarts": sum(history.columns["restarted"])}
    return _result(ws, "fista", trace, u, converged, t0, history, meta)
