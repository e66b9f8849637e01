"""Pointwise metric projection onto the three-phase segregation set.

A triple is feasible when all entries are nonnegative and at least one is
zero.  The set is the union of three convex faces (k-th entry zero, others
nonnegative); the Euclidean projection onto face k clips negatives and zeroes
entry k, at squared distance ((v_k)+)^2 + sum_i ((v_i)-)^2.  The common
negative-part term makes the best face the one with the smallest positive
part, ties going to the smallest index.  An optional hysteresis tolerance
keeps the previously zeroed index at near-ties to avoid phase flicker.
`project_point` names the zeroed face by its 1-based index; the stack
projections carry it as a (3, ny, nx) boolean zero mask.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "project_point",
    "project_stack_interior",
    "project_and_pin",
    "face_projections",
    "projection_selftest",
]


def project_point(v, prev: int | None = None, tau: float = 0.0):
    """Project one triple onto the segregation set.

    Returns (projected 3-array, zeroed index in {1,2,3}).  With prev in
    {1,2,3}, the previous index is kept whenever its positive part is within
    tau of the smallest positive part; None or 0 means no previous index, as
    an all-false mask column does in `project_stack_interior`'s prev.
    """
    if prev not in (None, 0, 1, 2, 3):
        raise ValueError(f"previous index must be None or in 0..3, got {prev!r}")
    p0 = v[0] if v[0] > 0.0 else 0.0
    p1 = v[1] if v[1] > 0.0 else 0.0
    p2 = v[2] if v[2] > 0.0 else 0.0
    if p0 <= p1:
        k = 0 if p0 <= p2 else 2
    else:
        k = 1 if p1 <= p2 else 2
    if prev:
        pp = (p0, p1, p2)[prev - 1]
        if pp <= (p0, p1, p2)[k] + tau:
            k = prev - 1
    out = np.array([p0, p1, p2])
    out[k] = 0.0
    return out, k + 1


def project_stack_interior(
    values: np.ndarray,
    prev: np.ndarray | None = None,
    tau: float = 0.0,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of a (3, m, n) block of interior triples.

    Returns the projected block and its zero mask: a (3, m, n) bool array,
    true at the one component each node zeroes.  prev is such a mask from an
    earlier call, or None; a node whose column of prev is all false has no
    previous phase, as 0 does for `project_point`'s prev.  With `out` given
    the block is written there (it may be `values` itself).

    The mask starts as the comparisons of the smallest positive part (ties to
    the smallest index); with prev, a node takes prev's column instead where
    that component's positive part is within tau of the smallest.  `work`
    may supply the mask, a bool scratch array of the block's shape and a
    float (m, n) array for the hysteresis threshold; the mask returned is
    then work[0], which must not be prev, and repeated calls allocate
    nothing.  The results are the same bit for bit as without `work`.
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
    np.equal(z0, z1, out=z2)  # neither, since z0 and z1 are never both true
    if prev is not None:
        # keep the previous component where its positive part is within tau of the minimum
        np.minimum(p0, p1, out=thr)
        np.minimum(thr, p2, out=thr)
        thr += tau
        np.less_equal(p, thr, out=keep)
        np.logical_and(keep, prev, out=keep)
        kept = np.logical_or(keep[0], keep[1], out=keep[0])
        np.logical_or(kept, keep[2], out=kept)
        np.copyto(zero, prev, where=kept)
    np.copyto(p, 0.0, where=zero)
    return p, zero


def project_and_pin(
    out: np.ndarray,
    tr: np.ndarray,
    prev: np.ndarray | None = None,
    tau: float = 0.0,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Project the (3, ny, nx) stack `out` in place and pin its ring to the trace `tr`.

    The whole stack is projected as one contiguous block, which is faster
    than the strided interior view; the ring values this produces are then
    overwritten.  prev is a previous (3, ny, nx) zero mask or None, and the
    returned zero mask, like prev's, is meaningless on the ring.  `work` is
    passed to :func:`project_stack_interior`.
    """
    _, zero = project_stack_interior(out, prev, tau, out, work)
    ny, nx = out.shape[1:]
    out[:, :: ny - 1] = tr[:, :: ny - 1]  # the first and last row
    out[:, :, :: nx - 1] = tr[:, :, :: nx - 1]  # the first and last column
    return zero


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
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
