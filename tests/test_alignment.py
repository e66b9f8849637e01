"""Cache-line alignment of the solver loops' buffers, and bits that do not depend on it.

Every buffer a loop touches each iteration comes from `grid.aligned_empty`
and starts on a 64-byte boundary.  Moving every such buffer to another
offset from a cache line changes run times only: the final stack and the
history of each loop keep their bytes.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from segsolve import grid as grid_module
from segsolve import penalty, projected_gradient
from segsolve.grid import aligned_empty, build_grid
from segsolve.penalty import PenaltyConfig, run_penalty
from segsolve.projected_gradient import FistaConfig, PgdConfig, fista_run, pgd_run

SQUARE = (-1.0, 1.0, -1.0, 1.0)

# the _RedBlackPlan buffers, and the scratch of its Schur closure
PLAN_BUFFERS = ("interior", "staged", "x_staged", "rows_r", "rows_b", "c_r", "cg_work", "solution",
                "scale_work", "weights", "weighted", "pair", "xr", "t", "trace_only",
                "minus_trace", "basis")
CLOSURE_BUFFERS = ("tmp_r", "tmp_b")


def offset(a: np.ndarray) -> int:
    return a.ctypes.data % 64


@pytest.mark.parametrize("dtype", [float, bool])
@pytest.mark.parametrize("shape", [(), (7,), (0,), (5, 3), (3, 4, 5), (3, 0, 4)])
def test_aligned_empty_is_c_contiguous_on_a_cache_line(shape, dtype):
    for _ in range(8):  # fresh allocations land at different offsets
        a = aligned_empty(shape, dtype)
        assert a.shape == shape and a.dtype == np.dtype(dtype)
        assert a.flags.c_contiguous and a.flags.writeable
        assert offset(a) == 0


def test_aligned_empty_takes_an_integer_length():
    a = aligned_empty(5)
    assert a.shape == (5,) and offset(a) == 0


def _closure(fn) -> dict:
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


@pytest.fixture
def workspaces(monkeypatch):
    """Every `_Workspace` the PG loops build, with the buffers built from it."""
    made = []

    class Recording(projected_gradient._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            self.buffers = []
            made.append(self)

        def buffer(self, values=None):
            buf = super().buffer(values)
            self.buffers.append(buf)
            return buf

    monkeypatch.setattr(projected_gradient, "_Workspace", Recording)
    return made


@pytest.mark.parametrize("run, cfg, count", [(pgd_run, PgdConfig(max_iters=20), 2),
                                             (fista_run, FistaConfig(max_iters=20), 3)],
                         ids=["pgd", "fista"])
def test_pg_loop_buffers_are_aligned(workspaces, run, cfg, count):
    run(build_grid(21, 21, SQUARE), "bc7", cfg)
    (ws,) = workspaces
    assert len(ws.buffers) == count
    arrays = {name: getattr(ws, name)
              for name in ("weights", "diff", "tmp", "prod", "keep", "thr")}
    arrays.update((f"energy_work row {k}", row) for k, row in enumerate(ws.energy_work))
    for k, buf in enumerate(ws.buffers):
        views = buf.project
        arrays.update({f"buffer {k} stack": buf.stack, f"buffer {k} zero": views.zero,
                       f"buffer {k} keep": views.keep, f"buffer {k} thr": views.thr})
        arrays.update((f"buffer {k} {name} row", getattr(buf.energy, name))
                      for name in ("dx_rows", "dy_rows"))
    misaligned = {name: offset(a) for name, a in arrays.items() if offset(a)}
    assert not misaligned


def test_penalty_run_buffers_are_aligned():
    seen = {}

    def hook(eps, it, u):
        if not seen:  # run_penalty's locals, as the first sweep left them
            seen.update(sys._getframe(1).f_locals)

    cfg = PenaltyConfig(1e-3, scheme="picard", max_outer=3)
    run_penalty(build_grid(21, 21, SQUARE), "bc7", cfg, iterate_hook=hook)
    arrays = {name: seen[name] for name in ("weights", "prod", "sq")}
    arrays.update((f"work row {k}", row) for k, row in enumerate(seen["work"]))
    for k, plan in enumerate(seen["plans"]):
        arrays.update((f"plan {k} {name}", getattr(plan, name)) for name in PLAN_BUFFERS)
        scratch = _closure(plan.negative_schur)
        arrays.update((f"plan {k} {name}", scratch[name]) for name in CLOSURE_BUFFERS)
    misaligned = {name: offset(a) for name, a in arrays.items() if offset(a)}
    assert not misaligned


def _digest(stack, rows, *more) -> str:
    h = hashlib.sha256(stack.tobytes())
    for part in (list(rows), *more):
        h.update(json.dumps(part).encode())
    return h.hexdigest()


def _runs() -> dict:
    g = build_grid(21, 21, SQUARE)
    state, report = pgd_run(g, "ex41", PgdConfig(max_iters=400))
    out = {"pgd": _digest(state.stack(), report.history)}
    h2 = g.hx**2
    # the shrinks-and-hysteresis configuration of the reference loops
    state, report = fista_run(g, "bc7", FistaConfig(alpha0=0.3 * h2, tau=1e-3, max_iters=300))
    out["fista"] = _digest(state.stack(), report.history)
    state, rows, report = run_penalty(g, "ex41", PenaltyConfig(1e-4, scheme="picard"))
    out["penalty"] = _digest(state.stack(), rows, report.meta["stages"])
    return out


def _shifted(by: int):
    """An aligned_empty whose arrays start `by` bytes past a cache line."""

    def empty(shape, dtype=float):
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape if np.iterable(shape) else (shape,)) * dtype.itemsize
        return aligned_empty(nbytes + 64, np.uint8)[by:][:nbytes].view(dtype).reshape(shape)

    return empty


@pytest.fixture(scope="module")
def aligned_digests():
    return _runs()


@pytest.mark.parametrize("by", [8, 16, 32, 48])
def test_results_do_not_depend_on_buffer_offsets(monkeypatch, aligned_digests, by):
    empty = _shifted(by)
    assert offset(empty((3, 4))) == by
    holders = [m for name, m in sys.modules.items() if name.startswith("segsolve")
               and getattr(m, "aligned_empty", None) is grid_module.aligned_empty]
    assert {grid_module, penalty, projected_gradient} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, "aligned_empty", empty)
    assert _runs() == aligned_digests
