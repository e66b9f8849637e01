"""Interior solves for the weighted Helmholtz problems -lap(u) + (w/eps) u = f.

The five-point stencil with Dirichlet data reduces to a symmetric positive
definite system on the interior nodes,

    (2/hx^2 + 2/hy^2 + w/eps) u_ij
      - (u_(i-1)j + u_(i+1)j)/hx^2 - (u_i(j-1) + u_i(j+1))/hy^2
      = f_ij + boundary-neighbor coupling,

solved matrix-free by conjugate gradients with a Jacobi (diagonal)
preconditioner.  With w = 0 the solve is the discrete harmonic extension of
the boundary data.

Harmonic extensions (interior weight identically zero) run CG on the
flattened full (ny, nx) field, not on the interior block:

  * x is a flat copy of the field whose boundary ring holds the trace; the
    working array is returned as the solution field.
  * The operator is the diagonal term plus four contiguous shifted slices of
    the flat array (offsets +-1 and +-nx), one pass each, over the span of
    flat nodes whose four neighbours lie in the array.  That span covers every
    interior node; at ring nodes inside it the shifts wrap across rows and
    leave finite junk.
  * The Jacobi inverse is zero on the ring, so whatever lands in the ring
    entries of the residual never reaches the preconditioned residual, the
    search direction or x, and the ring keeps the trace exactly.
  * The boundary coupling in the right-hand side is one operator application
    to the ring-only field.
  * The system is multiplied by hx^2 (x-neighbour coefficient 1), and CG
    keeps (x, r) and (p, -A p) as rows of two (2, size) arrays, so both
    updates are one pass.  Jacobi-PCG and its stopping test are invariant
    under the scaling; only rounding differs.

Penalized problems (any nonzero interior weight) run the same CG loop on the
red-black reduced system (Reid 1972; Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., 2003).  The five-point operator couples only nodes
of opposite colour, so with A = [[D_r, -N], [-N^T, D_b]] the red unknowns
are x_r = D_r^-1 (b_r + N x_b), and the black ones solve the Schur complement
system S x_b = b_b + N^T D_r^-1 b_r, S = D_b - N^T D_r^-1 N, by Jacobi-PCG
with D_b.  That takes about half the iterations of the full system, on
vectors half as long.

  * Colouring: nodes are coloured by flat-index parity on a row width
    W = nx for odd nx, nx + 1 for even nx; the extra column counts as ring
    and never neighbours an interior node.  With W odd, parity is a
    checkerboard, red (even) and black (odd) nodes are the stride-2 halves
    of the padded flat field, and every neighbour shift is a contiguous
    slice of a half-length array: red node k has black neighbours k-1, k
    and k-(W+1)/2, k+(W-1)/2, black node k has red neighbours k, k+1 and
    k-(W-1)/2, k+(W+1)/2.
  * The right-hand side b is the full-grid one above; after the red
    back-substitution the red residual is zero, so the reduced residual in
    the D_b^-1 norm equals the full residual in the D^-1 norm.  The stopping
    test, its scale ||b||_{D^-1} (both colours) and the residual history
    mean exactly what they mean on the full system.
  * Harmonic extensions stay on the full grid so that their bits, and with
    them the projected-gradient trajectories that start from them, do not
    move: those trajectories amplify last-bit changes of the initial state.

A dense factorization of the reduced interior system, assembled separately
from the interior right-hand side, is an independent oracle for small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, ScalarField

__all__ = [
    "HelmholtzProblem",
    "SolverControls",
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
        if isinstance(self.weight, ScalarField):
            self.weight = self.weight.values
        if isinstance(self.trace, ScalarField):
            self.trace = self.trace.values
        self.weight = np.asarray(self.weight, dtype=float)
        self.trace = np.asarray(self.trace, dtype=float)
        if self.weight.shape != self.grid.shape or self.trace.shape != self.grid.shape:
            raise ValueError("weight/trace shape does not match grid")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.trace))):
            raise ValueError("weight/trace must be finite")
        if np.any(self.weight < 0.0):
            raise ValueError("Helmholtz weight must be nonnegative")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.load is not None:
            self.load = np.asarray(self.load, dtype=float)
            if self.load.shape != self.grid.shape:
                raise ValueError("load shape does not match grid")
            if not np.all(np.isfinite(self.load)):
                raise ValueError("load must be finite")


@dataclass
class SolverControls:
    rel_tol: float = 1e-10
    max_iters: int | None = None  # None: 10 * interior node count

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def budget(self, grid: Grid) -> int:
        return self.max_iters if self.max_iters is not None else 10 * grid.n_interior


@dataclass
class SolveInfo:
    """Outcome of one CG solve.

    iterations counts CG iterations of the system actually solved: the
    red-black reduced system for penalized problems, the full interior system
    for harmonic extensions.  residual_norms[k] is the relative
    Jacobi-preconditioned residual of the full system after k iterations.
    """

    iterations: int
    rel_residual: float
    converged: bool
    residual_norms: list[float] = field(default_factory=list)


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


def _jacobi_pcg(pair, xr, dinv, negative_apply, scale, rel_tol, budget):
    """Jacobi-PCG loop on rows pair = (v, -A v) and xr = (x, r).

    On entry x holds the start and r its residual; negative_apply() writes
    -A v into pair[1].  x and r are updated in place.  Returns the iteration
    count, the final relative residual and the residual history.
    """
    v, minus_ap = pair
    x, r = xr
    tmp = np.empty_like(pair)
    z = r * dinv
    rz = float(r.dot(z))
    res = math.sqrt(max(rz, 0.0)) / scale
    history = [res]
    v[:] = z
    iters = 0
    while res > rel_tol and iters < budget:
        negative_apply()
        alpha = -rz / float(v.dot(minus_ap))
        np.add(xr, np.multiply(pair, alpha, out=tmp), out=xr)  # x += alpha p, r -= alpha A p
        np.multiply(r, dinv, out=z)
        rz_new = float(r.dot(z))
        res = math.sqrt(max(rz_new, 0.0)) / scale
        history.append(res)
        beta = rz_new / rz
        rz = rz_new
        np.multiply(v, beta, out=v)
        np.add(z, v, out=v)  # p <- z + beta * p
        iters += 1
    return iters, res, history


def _red_black_solve(shape, diag, dinv, b, x, q, scale, rel_tol, budget):
    """Solve on the red-black reduced system; writes the interior of x.

    diag, dinv and b are the flat full-grid diagonal, Jacobi inverse and
    right-hand side (system times hx^2, y-neighbour coefficient q); the
    interior of x is the start.  Returns what _jacobi_pcg returns.
    """
    ny, nx = shape
    w = nx + 1 - nx % 2  # odd row width
    h = w // 2
    # dinv, diag, b and the interior start on the padded layout, split into
    # their red (even flat index) and black (odd) halves
    padded = np.zeros((4, ny, w))
    for row, a in zip(padded, (dinv, diag, b)):
        row[:, :nx] = a.reshape(ny, nx)
    padded[3, 1:-1, 1 : nx - 1] = x.reshape(ny, nx)[1:-1, 1:-1]
    flat = padded.reshape(4, -1)
    (dinv_r, _, b_r, _), (dinv_b, diag_b, b_b, x_b) = flat[:, 0::2].copy(), flat[:, 1::2].copy()
    nr, nb = dinv_r.size, dinv_b.size

    pair = np.zeros((2, nb))  # (v, -S v) on black nodes
    xr = np.empty((2, nb))
    v, minus_sv = pair
    t = np.zeros(nr)  # red nodes: D_r^-1 N v, or the red unknowns after back_substitute
    # spans holding every interior node of one colour, all four neighbours in range
    lo, hi = h + 1, nb - h
    red_x, red_y = (v[lo - 1 : hi - 1], v[lo:hi]), (v[lo - h - 1 : hi - h - 1], v[lo + h : hi + h])
    t_span, dr, tmp_r = t[lo:hi], dinv_r[lo:hi], np.empty(hi - lo)
    lo, hi = h, nr - h - 1
    black_x, black_y = (t[lo:hi], t[lo + 1 : hi + 1]), (t[lo - h : hi - h], t[lo + h + 1 : hi + h + 1])
    out, centre, db, tmp_b = minus_sv[lo:hi], v[lo:hi], diag_b[lo:hi], np.empty(hi - lo)

    def to_red() -> None:
        """t <- D_r^-1 N v: zero on the red ring."""
        np.add(*red_x, out=t_span)
        np.add(*red_y, out=tmp_r)
        np.multiply(tmp_r, q, out=tmp_r)
        np.add(t_span, tmp_r, out=t_span)
        np.multiply(t_span, dr, out=t_span)

    def to_black() -> None:
        """minus_sv <- N^T t - D_b v: exact at interior nodes, finite junk on the ring."""
        np.add(*black_x, out=out)
        np.add(*black_y, out=tmp_b)
        np.multiply(tmp_b, q, out=tmp_b)
        np.add(out, tmp_b, out=out)
        np.multiply(db, centre, out=tmp_b)
        np.subtract(out, tmp_b, out=out)

    def negative_schur() -> None:
        to_red()
        to_black()

    c_r = b_r * dinv_r

    def back_substitute() -> None:
        """t <- D_r^-1 (b_r + N v): the red unknowns that zero the red residual."""
        to_red()
        np.add(t, c_r, out=t)

    xr[0] = x_b
    v[:] = x_b
    back_substitute()
    to_black()
    np.add(b_b, minus_sv, out=xr[1])  # residual of the full system at black nodes
    result = _jacobi_pcg(pair, xr, dinv_b, negative_schur, scale, rel_tol, budget)

    v[:] = xr[0]
    back_substitute()
    solution = np.empty((ny, w))
    solution.reshape(-1)[0::2] = t
    solution.reshape(-1)[1::2] = xr[0]
    x.reshape(ny, nx)[1:-1, 1:-1] = solution[1:-1, 1 : nx - 1]
    return result


def solve_helmholtz_with_info(
    p: HelmholtzProblem,
    controls: SolverControls | None = None,
    x0: np.ndarray | ScalarField | None = None,
) -> tuple[ScalarField, SolveInfo]:
    """Preconditioned CG solve; returns the field and convergence info.

    The stopping test is on the diagonally preconditioned residual norm
    relative to the preconditioned right-hand side.  x0 (full-shape array or
    field) warm-starts the iteration; only its interior values are used.
    Penalized problems are solved on the red-black reduced system, harmonic
    extensions on the full grid (module docstring).
    """
    controls = controls or SolverControls()
    g = p.grid
    nx, size = g.nx, g.ny * g.nx
    hx2 = g.hx**2
    q = hx2 / g.hy**2
    ring = g.boundary_mask().reshape(-1)
    # the system times hx^2: x-neighbour coefficient 1, y-neighbour coefficient q
    diag = 2.0 + 2.0 * q + np.where(ring, 0.0, p.weight.reshape(-1)) * (hx2 / p.epsilon)
    dinv = np.where(ring, 0.0, 1.0 / diag)
    load = 0.0 if p.load is None else np.where(ring, 0.0, p.load.reshape(-1) * hx2)
    trace_only = np.where(ring, p.trace.reshape(-1), 0.0)

    # pair holds the operand v (the search direction p in the loop) and -A v;
    # xr holds x and r.  Both CG updates are then one pass: xr += alpha * pair.
    pair = np.zeros((2, size))
    xr = np.empty((2, size))
    v, minus_ap = pair
    x, r = xr
    lo, hi = nx + 1, size - nx - 1  # interior nodes lie in [lo, hi), their neighbours in the array
    centre, left, right = v[lo:hi], v[lo - 1 : hi - 1], v[lo + 1 : hi + 1]
    down, up = v[lo - nx : hi - nx], v[lo + nx : hi + nx]
    d, out = diag[lo:hi], minus_ap[lo:hi]
    t = np.empty(hi - lo)

    def negative_apply() -> None:
        """minus_ap <- -A v: exact at interior nodes, finite junk on the ring."""
        np.add(down, up, out=out)
        np.multiply(out, q, out=out)
        np.add(left, right, out=t)
        np.add(out, t, out=out)
        np.multiply(d, centre, out=t)
        np.subtract(out, t, out=out)

    # interior right-hand side: load plus the coupling to the boundary ring
    v[:] = trace_only
    negative_apply()
    b = load + minus_ap
    bz = float(b.dot(b * dinv))
    if bz == 0.0:
        # zero data: unique solution is zero (coefficient is nonnegative)
        return ScalarField(g, trace_only.reshape(g.shape)), SolveInfo(0, 0.0, True, [0.0])

    if x0 is None:
        x[:] = trace_only
    else:
        x0v = x0.values if isinstance(x0, ScalarField) else np.asarray(x0, dtype=float)
        x[:] = np.where(ring, trace_only, x0v.reshape(-1))
    scale = math.sqrt(bz)
    budget = controls.budget(g)
    if np.any(p.weight[1:-1, 1:-1] != 0.0):
        iters, res, history = _red_black_solve(
            g.shape, diag, dinv, b, x, q, scale, controls.rel_tol, budget
        )
    else:
        v[:] = x
        negative_apply()
        np.add(load, minus_ap, out=r)
        iters, res, history = _jacobi_pcg(pair, xr, dinv, negative_apply, scale, controls.rel_tol, budget)

    info = SolveInfo(iters, res, res <= controls.rel_tol, history)
    if not info.converged:
        raise LinearSolveError(
            f"CG did not reach rel_tol={controls.rel_tol:g} in {iters} iterations "
            f"(achieved {res:.3e})",
            iterations=iters,
            rel_residual=res,
        )
    return ScalarField(g, x.reshape(g.shape)), info


def solve_helmholtz(
    p: HelmholtzProblem,
    controls: SolverControls | None = None,
    x0: np.ndarray | ScalarField | None = None,
) -> ScalarField:
    fld, _ = solve_helmholtz_with_info(p, controls, x0)
    return fld


def harmonic_extension(
    grid: Grid,
    trace: np.ndarray | ScalarField,
    controls: SolverControls | None = None,
    x0: np.ndarray | ScalarField | None = None,
) -> ScalarField:
    """Field with zero discrete Laplacian at interior nodes matching the trace."""
    tr = trace.values if isinstance(trace, ScalarField) else np.asarray(trace, dtype=float)
    p = HelmholtzProblem(grid, np.zeros(grid.shape), 1.0, tr)
    return solve_helmholtz(p, controls, x0)


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
