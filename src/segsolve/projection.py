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

`project_stack_interior` is the one vectorized kernel, and `project_and_pin`
applies it to a whole stack and pins the boundary ring to the trace.  Both
work through a `projection_views` record of one stack: its component
planes, the zero mask it owns, the hysteresis scratch and, with a trace,
the ring views.  A loop builds one record per buffer once and passes it to
every call; the kernel builds a fresh record when given none, so both
paths run the same code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import aligned_empty

__all__ = [
    "project_point",
    "project_stack_interior",
    "project_and_pin",
    "projection_views",
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


class ProjectionViews(NamedTuple):
    """What :func:`project_stack_interior` and :func:`project_and_pin` read and write for one
    stack, which owns its zero mask; see :func:`projection_views`."""

    stack: np.ndarray  # the (3, m, n) block, projected in place
    planes: tuple  # its three components
    zero: np.ndarray  # the zero mask written, this record's own
    zero_planes: tuple
    keep: np.ndarray  # scratch mask of the hysteresis
    keep_planes: tuple
    thr: np.ndarray  # (m, n) plane of the hysteresis threshold
    ring: tuple | None  # the first and last rows, then columns, of stack and of trace


def projection_views(stack: np.ndarray, trace=None, keep=None, thr=None) -> ProjectionViews:
    """The record through which the projection reads and writes the (3, m, n) block `stack`.

    The record allocates its own zero mask, the bool array of the block's
    shape that every projection through it writes.  With the (3, m, n)
    `trace`, it also holds the ring views that :func:`project_and_pin`
    pins: the first and last row, and the first and last column, of the
    stack and of the trace.  keep, a bool array of the block's shape, and
    thr, a float (m, n) array, are scratch within one call, so records may
    share them; each is allocated when None.  Every array the record
    allocates starts on a 64-byte cache line
    (:func:`segsolve.grid.aligned_empty`).  Built once per stack, a
    record lets repeated calls skip every unpack and slice; its views see
    the arrays' later values.
    """
    if keep is None:
        keep = aligned_empty(stack.shape, bool)
    if thr is None:
        thr = aligned_empty(stack.shape[1:])
    ring = None
    if trace is not None:
        m, n = stack.shape[1:]
        rows = (slice(None), slice(None, None, m - 1))
        cols = (slice(None), slice(None), slice(None, None, n - 1))
        ring = (stack[rows], trace[rows], stack[cols], trace[cols])
    zero = aligned_empty(stack.shape, bool)
    return ProjectionViews(stack, tuple(stack), zero, tuple(zero), keep, tuple(keep), thr, ring)


def project_stack_interior(
    values: np.ndarray,
    prev: np.ndarray | None = None,
    tau: float = 0.0,
    views: ProjectionViews | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of a (3, m, n) block of interior triples.

    Returns the projected block and its zero mask: a (3, m, n) bool array,
    true at the one component each node zeroes.  prev is such a mask from an
    earlier call, or None; a node whose column of prev is all false has no
    previous phase, as 0 does for `project_point`'s prev.

    The mask starts as the comparisons of the smallest positive part (ties to
    the smallest index); with prev, a node takes prev's column instead where
    that component's positive part is within tau of the smallest.  The block
    and the mask are written into the stack and the mask of the
    :func:`projection_views` record `views` (`values` may be its stack), or
    of a fresh record when None.  prev, read while the mask is written,
    must not be the record's own mask (ValueError, before anything is
    written).
    """
    if views is None:
        views = projection_views(np.empty(values.shape))
    elif prev is views.zero:
        raise ValueError("prev is the zero mask this projection writes")
    p = np.maximum(values, 0.0, out=views.stack)
    _, (p0, p1, p2), zero, (z0, z1, z2), keep, (k0, k1, k2), thr, _ = views
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
        np.logical_or(k0, k1, out=k0)
        np.logical_or(k0, k2, out=k0)
        np.copyto(zero, prev, where=k0)
    np.copyto(p, 0.0, where=zero)
    return p, zero


def project_and_pin(
    views: ProjectionViews, prev: np.ndarray | None = None, tau: float = 0.0
) -> np.ndarray:
    """Project the stack of the record `views` in place and pin its ring to the record's trace.

    The whole (3, ny, nx) stack is projected as one contiguous block, which
    is faster than the strided interior view; the ring values this produces
    are then overwritten, by two copies between the ring views.  `views` is
    a :func:`projection_views` record built with a trace.  prev is a
    previous (3, ny, nx) zero mask or None, never the record's own.
    Returns the record's mask, which, like prev's, is meaningless on the
    ring.
    """
    rows, tr_rows, cols, tr_cols = views.ring
    _, zero = project_stack_interior(views.stack, prev, tau, views)
    np.copyto(rows, tr_rows)  # the first and last row
    np.copyto(cols, tr_cols)  # the first and last column
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
