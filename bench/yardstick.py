"""A fixed computation that measures how fast this machine runs right now.

On a shared host the same solve can take twice as long a minute later: the
process gets slower CPU time, not less of it.  The benchmark therefore times
this yardstick after every timed step of a run and reports the run's times
scaled to the yardstick's nominal duration,

    scaled = wall * REFERENCE_S / (mean of the run's yardstick readings)

The yardstick mixes the two kinds of work segsolve does: numpy arithmetic on
small arrays (a five-point stencil, a pointwise projection, a reduction) and
plain interpreter work (integer arithmetic and dict stores).  It does not call
segsolve, so a change to segsolve does not change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the yardstick's wall time on a quiet 2.1 GHz Xeon core
REFERENCE_S = 0.5
# one reading alternates the two kinds of work in short rounds, so both see
# the same moments of the host's speed
_ROUNDS = 4
_STENCIL_STEPS = 1200
_INTERPRETER_STEPS = 400_000


def _array_work(n: int = 31) -> float:
    u = np.linspace(0.0, 1.0, 3 * n * n).reshape(3, n, n)
    out = np.zeros_like(u)
    total = 0.0
    for _ in range(_STENCIL_STEPS):
        c = u[:, 1:-1, 1:-1]
        out[:, 1:-1, 1:-1] = c + 0.1 * (
            u[:, :-2, 1:-1] + u[:, 2:, 1:-1] + u[:, 1:-1, :-2] + u[:, 1:-1, 2:] - 4.0 * c
        )
        np.maximum(out - 0.5 * out.min(axis=0), 0.0, out=out)
        total += float(np.sum(out * out))
        u, out = out, u
    return total


def _interpreter_work() -> int:
    s, table = 0, {}
    for i in range(_INTERPRETER_STEPS):
        s += i * i % 7
        table[i & 255] = s
    return s


def measure() -> float:
    """Wall seconds of one yardstick reading."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _array_work()
        _interpreter_work()
    return time.perf_counter() - t0


def factor(readings: list[float]) -> float:
    """REFERENCE_S over the mean of a run's yardstick readings."""
    return REFERENCE_S / statistics.fmean(readings)
