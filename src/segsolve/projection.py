"""Pointwise metric projection onto the three-phase segregation set.

A triple is feasible when all entries are nonnegative and at least one is
zero.  The set is the union of three convex faces (k-th entry zero, others
nonnegative); the Euclidean projection onto face k clips negatives and zeroes
entry k, at squared distance ((v_k)+)^2 + sum_i ((v_i)-)^2.  The common
negative-part term makes the best face the one with the smallest positive
part, ties going to the smallest index.  An optional hysteresis tolerance
keeps the previously zeroed index at near-ties to avoid phase flicker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryTrace
from .grid import Grid, SystemState

__all__ = [
    "ProjectionControls",
    "PhaseAssignment",
    "project_point",
    "project_field",
    "project_stack_interior",
    "project_and_pin",
    "face_projections",
    "projection_selftest",
    "assignment_to_csv",
]


@dataclass
class ProjectionControls:
    tau: float = 0.0  # hysteresis tolerance

    def __post_init__(self):
        if self.tau < 0.0:
            raise ValueError("hysteresis tolerance must be >= 0")


@dataclass
class PhaseAssignment:
    """Per-node index (1..3) of the zeroed component; 0 at boundary nodes."""

    grid: Grid
    k: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.int8)
        if self.k.shape != self.grid.shape:
            raise ValueError("assignment shape does not match grid")


def project_point(v, prev: int | None = None, tau: float = 0.0):
    """Project one triple onto the segregation set.

    Returns (projected 3-array, zeroed index in {1,2,3}).  With prev given,
    the previous index is kept whenever its positive part is within tau of
    the smallest positive part.
    """
    p0 = v[0] if v[0] > 0.0 else 0.0
    p1 = v[1] if v[1] > 0.0 else 0.0
    p2 = v[2] if v[2] > 0.0 else 0.0
    if p0 <= p1:
        k = 0 if p0 <= p2 else 2
    else:
        k = 1 if p1 <= p2 else 2
    if prev is not None:
        pp = (p0, p1, p2)[prev - 1]
        if pp <= (p0, p1, p2)[k] + tau:
            k = prev - 1
    out = np.array([p0, p1, p2])
    out[k] = 0.0
    return out, k + 1


_INDICES = np.arange(1, 4, dtype=np.int8).reshape(3, 1, 1)


def project_stack_interior(
    values: np.ndarray,
    prev_k: np.ndarray | None = None,
    tau: float = 0.0,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    indices: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized projection of a (3, m, n) block of interior triples.

    prev_k holds previous 1-based indices (0 where undefined).  Returns the
    projected block and the new 1-based index array; with `indices` false
    and no prev_k the index array is not built and None takes its place.
    With `out` given the block is written there (it may be `values` itself)
    and no stack-sized array is allocated.

    Each component is zeroed straight from a boolean mask: the comparisons
    of the smallest positive part (ties to the smallest index), or, with
    prev_k, the masks of the final index array.  `work` may supply two bool
    arrays of the block's shape and one float (m, n) array for the masks and
    the hysteresis threshold, so that repeated calls allocate at most the
    index array; the results are the same bit for bit as without them.
    """
    p = np.maximum(values, 0.0, out=out)
    p0, p1, p2 = p
    if work is None:
        work = (np.empty(p.shape, bool), np.empty(p.shape, bool), np.empty(p0.shape))
    zero, keep, thr = work
    z0, z1, z2 = zero
    # smallest positive part, ties to the smallest index (argmin's rule)
    np.less_equal(p0, p1, out=z0)
    np.less_equal(p0, p2, out=z2)
    np.logical_and(z0, z2, out=z0)
    np.less_equal(p1, p2, out=z1)
    np.greater(z1, z0, out=z1)  # p1 <= p2 and not z0
    k = None
    if indices or prev_k is not None:
        k = np.full(p0.shape, 3, dtype=np.int8)
        k[z1] = 2
        k[z0] = 1
    if prev_k is None:
        np.logical_or(z0, z1, out=z2)
        np.logical_not(z2, out=z2)
    else:
        # keep the previous index where its positive part is within tau of the minimum
        np.minimum(p0, p1, out=thr)
        np.minimum(thr, p2, out=thr)
        thr += tau
        np.equal(prev_k, _INDICES, out=keep)
        np.less_equal(p, thr, out=zero)
        np.logical_and(keep, zero, out=keep)
        kept = np.logical_or(keep[0], keep[1], out=z0)
        np.logical_or(kept, keep[2], out=kept)
        np.copyto(k, prev_k, where=kept, casting="unsafe")
        np.equal(k, _INDICES, out=zero)
    np.copyto(p, 0.0, where=zero)
    return p, k


def project_and_pin(
    out: np.ndarray,
    tr: np.ndarray,
    prev_k: np.ndarray | None = None,
    tau: float = 0.0,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    indices: bool = True,
) -> np.ndarray | None:
    """Project the (3, ny, nx) stack `out` in place and pin its ring to the trace `tr`.

    The whole stack is projected as one contiguous block, which is faster
    than the strided interior view; the ring values this produces are then
    overwritten.  prev_k is a previous (ny, nx) result or None, and the
    returned (ny, nx) indices, like prev_k's, are meaningless on the ring.
    `work` and `indices` are passed to :func:`project_stack_interior`.
    """
    _, k = project_stack_interior(out, prev_k, tau, out, work, indices)
    out[:, 0, :] = tr[:, 0, :]
    out[:, -1, :] = tr[:, -1, :]
    out[:, :, 0] = tr[:, :, 0]
    out[:, :, -1] = tr[:, :, -1]
    return k


def project_field(
    state: SystemState,
    trace: BoundaryTrace,
    prev: PhaseAssignment | None = None,
    controls: ProjectionControls | None = None,
) -> tuple[SystemState, PhaseAssignment]:
    """Project interior nodes; boundary nodes are set to the trace verbatim."""
    grid = state.grid
    if trace.grid != grid:
        raise ValueError("trace grid does not match state grid")
    if prev is not None and prev.grid != grid:
        raise ValueError("previous assignment grid does not match")
    out = state.stack()
    k = project_and_pin(
        out, trace.phi, None if prev is None else prev.k, (controls or ProjectionControls()).tau
    )
    k[grid.boundary_mask()] = 0
    return SystemState.from_stack(grid, out), PhaseAssignment(grid, k)


def face_projections(v) -> tuple[np.ndarray, np.ndarray]:
    """The three explicit face projections of a triple and their squared distances."""
    v = np.asarray(v, dtype=float)
    pos = np.maximum(v, 0.0)
    cands = np.tile(pos, (3, 1))
    np.fill_diagonal(cands, 0.0)
    d2 = np.sum((cands - v[None, :]) ** 2, axis=1)
    return cands, d2


def projection_selftest(count: int, seed: int, tol: float = 1e-12):
    """Compare project_point against face enumeration on seeded random triples.

    Vectors are drawn uniformly from [-1, 2]^3.  Returns (ok, failures) where
    failures lists (vector, got_distance, best_distance, got_k, expected_k).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    vs = rng.uniform(-1.0, 2.0, size=(count, 3))
    failures = []
    for v in vs:
        out, k = project_point(v)
        d2 = float(np.sum((out - v) ** 2))
        _, dists = face_projections(v)
        best = float(dists.min())
        k_expected = int(np.argmin(dists)) + 1
        if abs(d2 - best) > tol or k != k_expected:
            failures.append((v.copy(), d2, best, k, k_expected))
    return not failures, failures


def assignment_to_csv(pa: PhaseAssignment, path) -> None:
    """Write interior assignments as `x,y,k` rows in row-major order."""
    g = pa.grid
    xs, ys = g.xs(), g.ys()
    with open(path, "w", newline="") as fh:
        fh.write("x,y,k\n")
        for j in range(1, g.ny - 1):
            for i in range(1, g.nx - 1):
                fh.write(f"{xs[i]:.17g},{ys[j]:.17g},{int(pa.k[j, i])}\n")
