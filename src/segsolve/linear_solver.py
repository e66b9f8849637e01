"""Interior solves for the weighted Helmholtz problems -lap(u) + (w/eps) u = f.

The five-point stencil with Dirichlet data reduces to a symmetric positive
definite system on the interior nodes,

    (2/hx^2 + 2/hy^2 + w/eps) u_ij
      - (u_(i-1)j + u_(i+1)j)/hx^2 - (u_i(j-1) + u_i(j+1))/hy^2
      = f_ij + boundary-neighbor coupling,

solved matrix-free by conjugate gradients with a Jacobi (diagonal)
preconditioner.  With w = 0 the solve is the discrete harmonic extension of
the boundary data.

Stopping.  CG stops once the Jacobi-preconditioned residual, relative to the
preconditioned right-hand side, is at most REL_TOL, and gets a budget of ten
iterations per interior node.  A solve that misses the tolerance raises
LinearSolveError, so every returned solve met it.

Every solve, harmonic extensions included, runs the CG loop on the red-black
reduced system (Reid 1972; Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., 2003).  The five-point operator couples only nodes of
opposite colour, so with A = [[D_r, -N], [-N^T, D_b]] the red unknowns are
x_r = D_r^-1 (b_r + N x_b), and the black ones solve the Schur complement
system S x_b = b_b + N^T D_r^-1 b_r, S = D_b - N^T D_r^-1 N, by Jacobi-PCG
with D_b.  That takes about half the iterations of the full system, on
vectors half as long.

  * Colouring: nodes are coloured by flat-index parity on a row width
    W = nx for odd nx, nx + 1 for even nx; the extra column is zero padding
    and never neighbours an interior node.  With W odd, parity is a
    checkerboard, red (even) and black (odd) nodes are the stride-2 halves
    of the flat (ny, W) layout, and every neighbour shift is a contiguous
    slice of a half-length array: red node k has black neighbours k-1, k
    and k-(W+1)/2, k+(W-1)/2, black node k has red neighbours k, k+1 and
    k-(W-1)/2, k+(W+1)/2.
  * The system is multiplied by hx^2: x-neighbour coefficient 1, y-neighbour
    coefficient q = hx^2/hy^2.  Jacobi-PCG and its stopping test are
    invariant under the scaling; only rounding differs.
  * The right-hand side b is that of the full interior system; after the
    red back-substitution the red residual is zero, so the reduced residual
    in the D_b^-1 norm equals the full residual in the D^-1 norm.  The
    stopping test and its scale ||b||_{D^-1} (both colours) mean exactly
    what they mean on the full system.

The set-up of the red-black solve that does not depend on the interior
weight lives in a plan (`_RedBlackPlan`), built once per run for each
component trace and passed to every solve of that component.  It holds its
trace as a read-only ring-only field, the ring mask, the CG buffers and the
operator's views into them, and the trace-side right-hand side on the grid.
That right-hand side is the neighbour coupling of the ring-only field t at
interior nodes, (t_(j-1)i + t_(j+1)i) q + (t_j(i-1) + t_j(i+1)), and zero on
the ring; it does not depend on the interior weight.  A solve writes its
Jacobi inverse, diagonal and right-hand side (load part, 0.0 without a
load, plus the trace side) into the grid columns of a zero-padded
(3, ny, W) array; two stride-2 copies of the flat rows split them into red
and black halves.  Its scale is a dot of grid-ordered contiguous vectors.
Only the trace, the plan's problem and the kept solutions below belong to
one trace; the plans of a run's three components share the rest
(`sibling`), which each solve sets up afresh.  A solve without a plan
(`solve_helmholtz`, `harmonic_extension`) builds a one-off plan, so there
is one path; its bits are those of the set-up done per solve.

Where inputs are checked.  `HelmholtzProblem(...)` checks all its inputs,
and a solve given a plan checks that the plan was built for the problem's
grid and trace.  A plan checks its trace once, in a problem of its own on
the read-only field; `pose` sets that problem's weight, epsilon and load and
checks only those, with the same messages, and the plan check passes it on
the identity of the trace array.  Every returned field is checked for
finiteness.

Galerkin starts (Fischer, Comput. Methods Appl. Mech. Engrg. 163, 1998).  A
plan also keeps the black halves of the solutions its caller hands to
`keep` (the penalty loop: the current stage's solutions) and forgets them on
`clear`.  A solve given a plan leaves the black half of its answer there
(`answer`) for `keep()`: a copy of its x_b.  With two or more kept, a
solve ignores x0 and starts CG at the last one, x, plus the step D c, where
the columns of D are the steps between the last up to START_DEPTH + 1 kept
solutions and c solves the Galerkin system (D^T S D) c = D^T r of the
current Schur operator, r = b - S x.  That start is the best in the S-norm
over x + span(D).

  * S = D_b - N^T D_r^-1 N, so D^T S D = D^T D_b D - (N D)^T D_r^-1 (N D).
    N D does not depend on the weight and is formed once per kept step, so
    the Galerkin matrix costs no Schur application.  The residual is then
    updated, r <- r - S (D c): one Schur application per start.
  * The sums are einsum loops, not BLAS dot products, so their bits do not
    depend on the BLAS thread count.
  * The small system is solved by Gauss-Jordan elimination, newest step
    first; a step whose pivot is at most DEPENDENT times its diagonal
    depends on those taken (for example a repeated solution) and gets
    coefficient 0.  If every step is dropped, CG starts from the last
    solution.  (numpy.linalg.lstsq does the same job but adds about 1 MB
    of LAPACK code to a run's peak memory.)
  * The start changes where CG begins, not where it stops: the stopping
    test is the same, so every solve still meets its tolerance and obeys
    the discrete maximum principle as a cold solve does.

Call overhead.  At the sizes of the penalty runs (about 1,300 entries per
half at n=51) a ufunc call costs about half a microsecond, and the
interpreter work around it once cost as much again.  So the per-iteration
and per-solve code runs on views built once per plan (or per trace, for
the kept steps), binds the ufuncs it calls to locals, passes every output
positionally and gives scalar operands as 0-d arrays: a Python float costs
a ufunc call about a third more.  The CG operator `negative_schur` is one
closure with the red neighbour sum, the D_r^-1 product and the black
neighbour sum written out in it, and the Galerkin combination writes its
products into CG scratch.  None of this changes an operation or its order,
so every solve keeps its bits.

A dense factorization of the reduced interior system, assembled separately
from the interior right-hand side, is an independent oracle for small grids.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, aligned_empty

__all__ = [
    "HelmholtzProblem",
    "SolveInfo",
    "LinearSolveError",
    "solve_helmholtz",
    "solve_helmholtz_with_info",
    "harmonic_extension",
    "dense_oracle_solve",
    "dense_interior_system",
    "interior_laplacian_matrix",
]

DENSE_ORACLE_CAP = 400
REL_TOL = 1e-10  # CG stops at this relative Jacobi-preconditioned residual
START_DEPTH = 3  # steps between kept solutions that a Galerkin start projects on
DEPENDENT = 1e-10  # a step whose pivot is at most this share of its diagonal is dropped


class LinearSolveError(RuntimeError):
    """Raised when CG fails to reach the target residual within its budget."""

    def __init__(self, message: str, iterations: int, rel_residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.rel_residual = rel_residual


@dataclass
class HelmholtzProblem:
    """One component's interior problem -lap(u) + (w/eps) u = f, u = g on the boundary.

    weight and trace are full (ny, nx) arrays; only interior weights and the
    boundary ring of the trace enter the system.  load is an optional interior
    source (zero for the plain penalized equations).
    """

    grid: Grid
    weight: np.ndarray
    epsilon: float
    trace: np.ndarray
    load: np.ndarray | None = None

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.trace = np.asarray(self.trace, dtype=float)
        if self.weight.shape != self.grid.shape or self.trace.shape != self.grid.shape:
            raise ValueError("weight/trace shape does not match grid")
        if not np.all(np.isfinite(self.trace)):
            raise ValueError("weight/trace must be finite")
        _check_coefficient(self.weight, self.epsilon)
        if self.load is not None:
            self.load = np.asarray(self.load, dtype=float)
            if self.load.shape != self.grid.shape:
                raise ValueError("load shape does not match grid")
            _check_load(self.load)


# HelmholtzProblem's checks of the values that change from solve to solve;
# `_RedBlackPlan.pose` runs them alone.  A min or max is NaN if any entry is,
# so two reductions test finiteness without a temporary array.


def _check_coefficient(weight: np.ndarray, epsilon: float) -> None:
    lo, hi = weight.min(), weight.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("weight/trace must be finite")
    if lo < 0.0:
        raise ValueError("Helmholtz weight must be nonnegative")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")


def _check_load(load: np.ndarray) -> None:
    if not (math.isfinite(load.min()) and math.isfinite(load.max())):
        raise ValueError("load must be finite")


@dataclass
class SolveInfo:
    """Outcome of one CG solve.

    iterations counts CG iterations of the red-black reduced system.
    rel_residual is the final relative Jacobi-preconditioned residual of
    the full system, at most REL_TOL: a solve that misses it raises
    LinearSolveError.  start_applies counts the operator passes spent on a
    Galerkin start: one neighbour sum per newly kept step and one Schur
    complement application when the step is taken (0 without a start).
    """

    iterations: int
    rel_residual: float
    start_applies: int = 0


def _interior_rhs(p: HelmholtzProblem) -> np.ndarray:
    g = p.grid
    ax, ay = 1.0 / g.hx**2, 1.0 / g.hy**2
    b = np.zeros((g.ny - 2, g.nx - 2))
    if p.load is not None:
        b += p.load[1:-1, 1:-1]
    b[0, :] += ay * p.trace[0, 1:-1]
    b[-1, :] += ay * p.trace[-1, 1:-1]
    b[:, 0] += ax * p.trace[1:-1, 0]
    b[:, -1] += ax * p.trace[1:-1, -1]
    return b


def _jacobi_pcg(pair, xr, dinv, negative_apply, scale, budget, work):
    """Jacobi-PCG loop on rows pair = (v, -A v) and xr = (x, r).

    On entry x holds the start and r its residual; negative_apply() writes
    -A v into pair[1].  x and r are updated in place, both in one pass.
    work is a float array of shape (3, v.size) for the update step and the
    preconditioned residual.  Returns the iteration count and the final
    relative residual.

    An iteration is five ufunc calls and two dot products besides
    negative_apply(), in the module's hot-path idiom (module docstring):
    the ufuncs, the dot methods and the tolerance are bound to locals, and
    alpha and beta reach the ufuncs as 0-d arrays.  The tolerance is read
    once per call.
    """
    add, multiply, sqrt, tol = np.add, np.multiply, math.sqrt, REL_TOL
    v, minus_ap = pair
    x, r = xr
    tmp, z = work[:2], work[2]
    step, decay = np.empty(()), np.empty(())  # alpha and beta as 0-d operands
    vdot, rdot = v.dot, r.dot
    multiply(r, dinv, z)
    rz = float(rdot(z))
    res = sqrt(max(rz, 0.0)) / scale
    v[:] = z
    iters = 0
    while res > tol and iters < budget:
        negative_apply()
        step[()] = -rz / float(vdot(minus_ap))
        add(xr, multiply(pair, step, tmp), xr)  # x += alpha p, r -= alpha A p
        multiply(r, dinv, z)
        rz_new = float(rdot(z))
        res = sqrt(max(rz_new, 0.0)) / scale
        decay[()] = rz_new / rz
        rz = rz_new
        multiply(v, decay, v)
        add(z, v, v)  # p <- z + beta * p
        iters += 1
    return iters, res


def _galerkin_coefficients(gram: np.ndarray, rhs: np.ndarray) -> list[float]:
    """c solving gram c = rhs on the steps taken, 0 on the dropped ones (module docstring).

    Gauss-Jordan elimination on the rows of [gram | rhs] as Python floats,
    newest step (last row) first; returns a list of Python floats.
    """
    k = len(rhs)
    a = gram.tolist()
    floor = [DEPENDENT * a[j][j] for j in range(k)]
    for row, b in zip(a, rhs.tolist()):
        row.append(b)
    taken = []
    for j in reversed(range(k)):
        pivot = a[j]
        p = pivot[j]
        if p <= floor[j]:
            continue
        taken.append(j)
        for i in range(k):
            if i != j:
                row = a[i]
                f = row[j] / p
                a[i] = [x - f * y for x, y in zip(row, pivot)]
    return [a[j][k] / a[j][j] if j in taken else 0.0 for j in range(k)]


def _zeros(shape) -> np.ndarray:
    """A zero-filled :func:`segsolve.grid.aligned_empty` float array."""
    a = aligned_empty(shape)
    a.fill(0.0)
    return a


class _RedBlackPlan:
    """The set-up of red-black solves on one grid with one boundary trace.

    Built once per run for each component trace, the later ones as siblings
    of the first, and passed to every solve of that component (module
    docstring).  It holds its trace as a read-only ring-only field with a
    checked problem on it (`pose`), the ring mask, the CG buffers with the
    operator's views into them, and the trace-side right-hand side on the
    grid.  A solve stages its Jacobi inverse, diagonal and right-hand side
    in the grid columns of a zero-padded (3, ny, W) array, whose flat rows
    split into the red and black halves by stride-2 copies, and forms its
    scale and initial residual.

    It also holds the black half of the last answer of a solve given the
    plan (`answer`) and the black halves of the solutions given to `keep`
    since the last `clear`, as the last one and the steps between the last
    START_DEPTH + 1; with two or more, a solve starts from a Galerkin
    projection onto them instead of x0 (module docstring).

    Alignment: every buffer the plan sets up, 0-d operands aside, starts
    on a 64-byte cache line (:func:`segsolve.grid.aligned_empty`).  The
    (2, nb) `pair` and `xr` and the (3, nb) `cg_work` keep unpadded rows,
    because CG runs whole-array ufuncs on them, which padding made slower.
    """

    def __init__(self, grid: Grid, trace: np.ndarray):
        ny, nx = grid.shape
        w = nx + 1 - nx % 2  # odd row width
        h = w // 2
        self.grid = grid
        self.hx2 = grid.hx**2
        self.q = q = self.hx2 / grid.hy**2
        self.ring = ring = grid.boundary_mask()
        self.interior = _zeros(grid.shape)
        np.logical_not(ring, self.interior)
        self.ring_nodes = np.flatnonzero(ring)
        self.nr, self.nb = nr, nb = (ny * w + 1) // 2, ny * w // 2
        self.staged = _zeros((3, ny, w))  # dinv, diag, b; the padding column stays 0
        self.stage = self.staged[:, :, :nx]  # their grid columns
        flat = self.staged.reshape(3, -1)
        self.split = flat[:, 0::2], flat[:, 1::2]  # red and black halves of staged
        # 0-d ufunc operands (module docstring): the stencil's centre
        # coefficient 2 + 2q and the weight's hx^2 / eps of the current solve
        self.stencil_centre, self.coefficient = np.array(2.0 + 2.0 * self.q), np.empty(())
        self.x_staged = _zeros((ny, w))  # black_half's interior copy; ring and padding stay 0
        self.rows_r, self.rows_b = _zeros((3, nr)), _zeros((3, nb))  # halves of staged
        self.c_r = _zeros(nr)
        self.cg_work = aligned_empty((3, nb))
        self.solution = aligned_empty((ny, w))
        flat = self.solution.reshape(-1)
        self.solution_halves = flat[0::2], flat[1::2]
        self.solution_interior = self.solution[1:-1, 1 : nx - 1]
        self.scale_work = aligned_empty(ny * nx)  # b D^-1 b in grid order, for the scale
        self.weights = aligned_empty(nb + nr)  # (D_b, -D_r^-1) of the current solve
        self.weights_b, self.weights_r = self.weights[:nb], self.weights[nb:]
        self.weighted = aligned_empty((START_DEPTH, nb + nr))  # basis rows times weights

        self.pair = pair = _zeros((2, nb))  # (v, -S v) on black nodes
        self.xr = aligned_empty((2, nb))  # (x, r) on black nodes
        v, minus_sv = pair
        # red nodes: D_r^-1 N v, or the red unknowns after back_substitute
        self.t = t = _zeros(nr)
        c_r = self.c_r
        # spans holding every interior node of one colour, all four neighbours in range
        lo, hi = h + 1, nb - h
        vx0, vx1, vy0, vy1 = v[lo - 1 : hi - 1], v[lo:hi], v[lo - h - 1 : hi - h - 1], v[lo + h : hi + h]
        t_span, dr, tmp_r = t[lo:hi], self.rows_r[0, lo:hi], aligned_empty(hi - lo)
        lo, hi = h, nr - h - 1
        tx0, tx1, ty0, ty1 = t[lo:hi], t[lo + 1 : hi + 1], t[lo - h : hi - h], t[lo + h + 1 : hi + h + 1]
        out, centre, db, tmp_b = minus_sv[lo:hi], v[lo:hi], self.rows_b[1, lo:hi], aligned_empty(hi - lo)
        # on square cells q is exactly 1, and a product with 1.0 changes no bit
        scaled = q != 1.0
        q = np.array(q)
        add, multiply, subtract = np.add, np.multiply, np.subtract

        def red_sums() -> None:
            """t <- N v on the red span: weight-free, finite junk on the red ring."""
            add(vx0, vx1, t_span)
            add(vy0, vy1, tmp_r)
            if scaled:
                multiply(tmp_r, q, tmp_r)
            add(t_span, tmp_r, t_span)

        def to_black() -> None:
            """minus_sv <- N^T t - D_b v: exact at interior nodes, finite junk on the ring."""
            add(tx0, tx1, out)
            add(ty0, ty1, tmp_b)
            if scaled:
                multiply(tmp_b, q, tmp_b)
            add(out, tmp_b, out)
            multiply(db, centre, tmp_b)
            subtract(out, tmp_b, out)

        def negative_schur() -> None:
            """minus_sv <- -S v, leaving t = D_r^-1 N v: red_sums, the D_r^-1
            product and to_black in one body, since CG calls it every iteration."""
            add(vx0, vx1, t_span)
            add(vy0, vy1, tmp_r)
            if scaled:
                multiply(tmp_r, q, tmp_r)
            add(t_span, tmp_r, t_span)
            multiply(t_span, dr, t_span)
            add(tx0, tx1, out)
            add(ty0, ty1, tmp_b)
            if scaled:
                multiply(tmp_b, q, tmp_b)
            add(out, tmp_b, out)
            multiply(db, centre, tmp_b)
            subtract(out, tmp_b, out)

        def back_substitute() -> None:
            """t <- D_r^-1 (b_r + N v): the red unknowns that zero the red residual."""
            red_sums()
            multiply(t_span, dr, t_span)
            add(t, c_r, t)

        self.red_sums, self.to_black = red_sums, to_black
        self.negative_schur, self.back_substitute = negative_schur, back_substitute
        self._set_trace(trace)

    def _set_trace(self, trace: np.ndarray) -> None:
        """Check the trace in a problem of the plan's own (`pose`), record it, set
        the trace-side right-hand side and an empty history.

        The recorded trace, also the problem's, is a read-only view of the
        ring-only field: the solves read the trace on the ring alone.
        """
        zero = np.broadcast_to(0.0, self.grid.shape)
        self.problem = HelmholtzProblem(self.grid, zero, 1.0, trace)
        trace_only = _zeros(self.grid.shape)
        np.copyto(trace_only, self.problem.trace, where=self.ring)
        self.trace_only = trace_only.reshape(-1)
        self.trace_only.flags.writeable = False
        self.trace = self.problem.trace = self.trace_only.reshape(self.grid.shape)
        self.ring_trace = self.trace_only[self.ring_nodes]
        # -A t times hx^2 at interior nodes: the diagonal meets only t's zero interior
        t = self.trace
        self.minus_trace = _zeros(self.grid.shape)
        self.minus_trace[1:-1, 1:-1] = (t[:-2, 1:-1] + t[2:, 1:-1]) * self.q + (t[1:-1, :-2] + t[1:-1, 2:])
        self.kept = 0
        self.last = _zeros(self.nb)
        self.answer = None  # black half of the last answer of a solve given this plan
        # rows (step d, N d): the steps between kept solutions on black nodes,
        # newest last, and their red neighbour sums
        self.basis = basis = _zeros((START_DEPTH, self.nb + self.nr))
        self.stale = 0  # newest rows whose N d is not computed yet
        nb = self.nb
        self.steps = [(row[:nb], row[nb:]) for row in basis]  # (d, N d) views of each row
        flat = basis.reshape(-1)
        self.shift = flat[: -basis.shape[1]], flat[basis.shape[1] :]  # rows 0.. <- rows 1..
        # by the number k of steps a start projects on: the newest k rows of
        # the basis and of its weighted copy, and their steps d
        self.newest = [None] + [(basis[-k:], self.weighted[-k:], basis[-k:, :nb])
                                for k in range(1, START_DEPTH + 1)]

    def sibling(self, trace: np.ndarray) -> _RedBlackPlan:
        """A plan for another trace on the same grid that shares this plan's buffers.

        Every solve sets the buffers up afresh, so plans whose solves run one
        after another can share them; only the trace side and the kept
        solutions are the sibling's own.
        """
        plan = copy.copy(self)
        plan._set_trace(trace)
        return plan

    def clear(self) -> None:
        """Forget the kept solutions."""
        self.kept = self.stale = 0

    def pose(self, weight: np.ndarray, epsilon: float, load=None) -> HelmholtzProblem:
        """The plan's own problem, now with this weight, epsilon and load.

        The grid and trace were checked when the plan was built, so only the
        new values are, with HelmholtzProblem's messages.  The next pose
        changes the same problem.
        """
        _check_coefficient(weight, epsilon)
        if load is not None:
            _check_load(load)
        p = self.problem
        p.weight, p.epsilon, p.load = weight, epsilon, load
        return p

    def black_half(self, x: np.ndarray) -> np.ndarray:
        """The black half of the field x (flat or full-shape) at interior nodes, zero elsewhere."""
        ny, nx = self.grid.shape
        self.x_staged[1:-1, 1 : nx - 1] = x.reshape(ny, nx)[1:-1, 1:-1]
        return self.x_staged.reshape(-1)[1::2].copy()

    def keep(self, x: np.ndarray | None = None) -> None:
        """Keep the black half of the full-shape field x for the next starts.

        Without x, keep that of the last answer of a solve given this plan
        (`answer`), which the solve held already.
        """
        xb = self.answer if x is None else self.black_half(x)
        if self.kept:
            np.copyto(*self.shift)
            np.subtract(xb, self.last, self.steps[-1][0])
            self.stale = min(self.stale + 1, START_DEPTH)
        self.last = xb
        self.kept += 1

    def galerkin_start(self) -> int:
        """Move x_b, the last kept solution, and its residual r by the Galerkin step.

        The step D c minimizes the S-norm error of x_b + D c over the span of
        the last kept steps D: (D^T S D) c = D^T r.  Returns the operator
        passes spent: one neighbour sum N d per new step, one S application
        unless c is zero.
        """
        k = min(self.kept - 1, START_DEPTH)
        v, minus_sv = self.pair
        x_b, r = self.xr
        passes = min(self.stale, k)
        for d, nd in self.steps[START_DEPTH - passes :]:
            v[:] = d
            self.red_sums()
            nd[:] = self.t
        self.stale = 0
        # D^T S D = D^T D_b D - (N D)^T D_r^-1 (N D) and D^T r; einsum loops,
        # not BLAS, so the bits do not depend on the BLAS thread count
        basis, weighted, steps = self.newest[k]
        np.copyto(self.weights_b, self.rows_b[1])
        np.negative(self.rows_r[0], self.weights_r)
        np.multiply(basis, self.weights, weighted)
        gram = np.einsum("ik,jk->ij", basis, weighted)
        c = _galerkin_coefficients(gram, np.einsum("ik,k->i", steps, r))
        if not any(c):
            return passes
        product = self.cg_work[0]  # free until CG starts
        np.multiply(steps[0], c[0], v)
        for cj, d in zip(c[1:], steps[1:]):
            np.add(v, np.multiply(d, cj, product), v)
        np.add(x_b, v, x_b)
        self.negative_schur()
        np.add(r, minus_sv, r)  # r - S D c; finite junk on the ring, where D c is zero
        return passes + 1

    def check(self, p: HelmholtzProblem) -> None:
        """Refuse a problem of another grid or boundary trace.

        A problem on the plan's own read-only trace, such as `pose` returns,
        passes without a comparison of values.
        """
        if p.grid != self.grid or (
            p.trace is not self.trace
            and not np.array_equal(p.trace.reshape(-1).take(self.ring_nodes), self.ring_trace)
        ):
            raise ValueError("red-black plan was built for another grid or boundary trace")

    def solve(self, p: HelmholtzProblem, x0, budget):
        """Solve p on the red-black reduced system; x0 is a flat start or None.

        Returns (x, iterations, final relative residual, operator passes of
        the start), x a new flat solution field, and holds the black half of
        x as `answer`: a copy of x_b, which has the bits of `black_half(x)`,
        since every start and CG update is zero at its ring and padding
        entries.
        """
        rows_r, rows_b = self.rows_r, self.rows_b
        dinv, diag, b = self.stage
        # the system times hx^2: x-neighbour coefficient 1, y-neighbour coefficient q
        np.multiply(p.weight, self.interior, diag)  # zero on the ring
        self.coefficient[()] = self.hx2 / p.epsilon
        np.multiply(diag, self.coefficient, diag)
        np.add(self.stencil_centre, diag, diag)
        np.divide(self.interior, diag, dinv)  # zero on the ring
        load = 0.0 if p.load is None else np.where(self.ring, 0.0, p.load * self.hx2)
        np.add(load, self.minus_trace, b)
        staged_r, staged_b = self.split
        np.copyto(rows_r, staged_r)
        np.copyto(rows_b, staged_b)
        # the scale sums grid-ordered contiguous vectors (copies for even nx),
        # so its bits do not depend on the padding
        b = b.reshape(-1)
        bz = float(b.dot(np.multiply(b, dinv.reshape(-1), self.scale_work)))
        if bz == 0.0:
            # zero data: unique solution is zero (coefficient is nonnegative)
            self.answer = np.zeros(self.nb)
            return self.trace_only.copy(), 0, 0.0, 0

        np.multiply(rows_r[2], rows_r[0], self.c_r)
        v, minus_sv = self.pair
        x_b, r = self.xr
        if self.kept >= 2:
            x_b[:] = self.last
        elif x0 is None:
            x_b.fill(0.0)
        else:
            x_b[:] = self.black_half(x0)
        v[:] = x_b
        self.back_substitute()
        self.to_black()
        np.add(rows_b[2], minus_sv, r)  # residual of the full system at black nodes
        applies = self.galerkin_start() if self.kept >= 2 else 0
        iters, res = _jacobi_pcg(
            self.pair, self.xr, rows_b[0], self.negative_schur, math.sqrt(bz), budget, self.cg_work
        )

        self.answer = x_b.copy()
        v[:] = x_b
        self.back_substitute()
        red, black = self.solution_halves
        red[:] = self.t
        black[:] = x_b
        x = self.trace_only.copy()
        x.reshape(self.grid.shape)[1:-1, 1:-1] = self.solution_interior
        return x, iters, res, applies


def solve_helmholtz_with_info(
    p: HelmholtzProblem,
    x0: np.ndarray | ScalarField | None = None,
    *,
    plan: _RedBlackPlan | None = None,
) -> tuple[ScalarField, SolveInfo]:
    """Preconditioned CG solve; returns the field and convergence info.

    CG stops at REL_TOL on the diagonally preconditioned residual norm
    relative to the preconditioned right-hand side, and raises
    LinearSolveError if it misses that within its budget.  x0 (full-shape
    array or field) warm-starts the iteration; only its interior values are
    used.
    The solve runs on the red-black reduced system through `plan`, a
    `_RedBlackPlan` of p's grid and trace (a one-off plan if None); a plan
    that has kept two or more solutions replaces x0 by a Galerkin start.  A
    given plan is checked against p and is left the black half of the
    answer (module docstring).
    """
    if x0 is not None:
        x0 = (x0.values if isinstance(x0, ScalarField) else np.asarray(x0, dtype=float)).reshape(-1)
    if plan is None:
        plan = _RedBlackPlan(p.grid, p.trace)
    else:
        plan.check(p)
    x, iters, res, applies = plan.solve(p, x0, 10 * p.grid.n_interior)

    if not res <= REL_TOL:
        raise LinearSolveError(
            f"CG did not reach rel_tol={REL_TOL:g} in {iters} iterations (achieved {res:.3e})",
            iterations=iters,
            rel_residual=res,
        )
    return ScalarField(p.grid, x.reshape(p.grid.shape)), SolveInfo(iters, res, applies)


def solve_helmholtz(p: HelmholtzProblem, x0: np.ndarray | ScalarField | None = None) -> ScalarField:
    fld, _ = solve_helmholtz_with_info(p, x0)
    return fld


def harmonic_extension(grid: Grid, trace: np.ndarray) -> ScalarField:
    """Field with zero discrete Laplacian at interior nodes matching the trace."""
    return solve_helmholtz(HelmholtzProblem(grid, np.zeros(grid.shape), 1.0, trace))


def _interior_index(grid: Grid):
    m, n = grid.ny - 2, grid.nx - 2
    return lambda j, i: j * n + i, m, n


def dense_interior_system(p: HelmholtzProblem) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix and right-hand side of the reduced interior system."""
    g = p.grid
    idx, m, n = _interior_index(g)
    ax, ay = 1.0 / g.hx**2, 1.0 / g.hy**2
    N = m * n
    A = np.zeros((N, N))
    for j in range(m):
        for i in range(n):
            k = idx(j, i)
            A[k, k] = 2.0 * ax + 2.0 * ay + p.weight[j + 1, i + 1] / p.epsilon
            if i > 0:
                A[k, idx(j, i - 1)] = -ax
            if i < n - 1:
                A[k, idx(j, i + 1)] = -ax
            if j > 0:
                A[k, idx(j - 1, i)] = -ay
            if j < m - 1:
                A[k, idx(j + 1, i)] = -ay
    b = _interior_rhs(p).ravel()
    return A, b


def interior_laplacian_matrix(grid: Grid) -> np.ndarray:
    """Dense matrix of the negative discrete Laplacian on interior nodes."""
    p = HelmholtzProblem(grid, np.zeros(grid.shape), 1.0, np.zeros(grid.shape))
    A, _ = dense_interior_system(p)
    return A


def dense_oracle_solve(p: HelmholtzProblem) -> ScalarField:
    """Direct factorization solve of the reduced system (test oracle).

    Capped at DENSE_ORACLE_CAP interior nodes; singularity is reported even
    though it cannot occur for nonnegative weights.
    """
    if p.grid.n_interior > DENSE_ORACLE_CAP:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_CAP} interior nodes, "
            f"got {p.grid.n_interior}"
        )
    A, b = dense_interior_system(p)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"singular reduced system: {exc}", 0, np.inf) from exc
    g = p.grid
    full = np.where(g.boundary_mask(), p.trace, 0.0)
    full[1:-1, 1:-1] = x.reshape(g.ny - 2, g.nx - 2)
    return ScalarField(g, full)
