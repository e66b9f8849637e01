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
applies it to a whole stack and pins the boundary ring to the trace.  A loop
that projects the same buffers every iteration builds their
`projection_views` once (the component planes of the stack and of the mask
buffers, the threshold plane and the ring views) and passes them in; the
kernel builds the same record on every call otherwise, so both paths run the
same code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
    stack and one mask buffer; see :func:`projection_views`."""

    stack: np.ndarray  # the (3, m, n) block, projected in place
    planes: tuple  # its three components
    zero: np.ndarray  # the zero mask written
    zero_planes: tuple
    keep: np.ndarray  # scratch mask of the hysteresis
    keep_planes: tuple
    thr: np.ndarray  # (m, n) plane of the hysteresis threshold
    trace: np.ndarray | None
    ring: tuple | None  # the first and last rows, then columns, of stack and of trace


def projection_views(
    stack: np.ndarray, zero=None, keep=None, thr=None, trace=None
) -> ProjectionViews:
    """The views the projection uses on the (3, m, n) block `stack`.

    zero and keep are bool arrays of the block's shape, the mask written and
    a scratch mask, and thr a float (m, n) array; each is allocated when
    None.  Stacks may share keep and thr, which are scratch within one call.
    With the (3, m, n) `trace`, the record also holds the ring views that
    :func:`project_and_pin` pins: the first and last row, and the first and
    last column, of the stack and of the trace.  Built once per stack and
    mask buffer, they let repeated calls skip every unpack and slice; the
    views see the arrays' later values.
    """
    if zero is None:
        zero = np.empty(stack.shape, bool)
    if keep is None:
        keep = np.empty(stack.shape, bool)
    if thr is None:
        thr = np.empty(stack.shape[1:])
    ring = None
    if trace is not None:
        m, n = stack.shape[1:]
        rows = (slice(None), slice(None, None, m - 1))
        cols = (slice(None), slice(None), slice(None, None, n - 1))
        ring = (stack[rows], trace[rows], stack[cols], trace[cols])
    return ProjectionViews(stack, tuple(stack), zero, tuple(zero), keep, tuple(keep), thr, trace,
                           ring)


def project_stack_interior(
    values: np.ndarray,
    prev: np.ndarray | None = None,
    tau: float = 0.0,
    out: np.ndarray | None = None,
    work: ProjectionViews | tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
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
    float (m, n) array for the hysteresis threshold, so repeated calls
    allocate nothing, or the :func:`projection_views` of `out` (ValueError
    for views of another stack), so they also build no views.  The mask
    returned is then the supplied one, which must not be prev.  The results
    are the same bit for bit either way.
    """
    views = isinstance(work, ProjectionViews)
    if views and work.stack is not out:
        raise ValueError("projection views of another stack than out")
    p = np.maximum(values, 0.0, out=out)
    if not views:
        work = projection_views(p, *(work or ()))
    _, (p0, p1, p2), zero, (z0, z1, z2), keep, (k0, k1, k2), thr, _, _ = work
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
    out: np.ndarray,
    tr: np.ndarray,
    prev: np.ndarray | None = None,
    tau: float = 0.0,
    work: ProjectionViews | tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Project the (3, ny, nx) stack `out` in place and pin its ring to the trace `tr`.

    The whole stack is projected as one contiguous block, which is faster
    than the strided interior view; the ring values this produces are then
    overwritten, by two copies between the ring views.  prev is a previous
    (3, ny, nx) zero mask or None, and the returned zero mask, like prev's,
    is meaningless on the ring.  `work` is the :func:`projection_views` of
    `out` and `tr` (ValueError for views of another stack or trace), or
    what :func:`project_stack_interior` takes in place of them.
    """
    if not isinstance(work, ProjectionViews):
        work = projection_views(out, *(work or ()), trace=tr)
    elif work.trace is not tr:
        raise ValueError("projection views of another trace than tr")
    _, zero = project_stack_interior(out, prev, tau, out, work)
    rows, tr_rows, cols, tr_cols = work.ring
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
