"""Spans and counts recorded around calls into segsolve's modules.

`install(recorder)` replaces selected module functions and `_Workspace`
methods with wrappers that record a span (name, start, end, parent span) per
call, plus counts read at the same boundary: CG iterations from the solve
info, backtracking trials and restarts from the backtrack result, and bytes
from the files the writers produce.  Spans stay in memory and are written
once, when the process ends; pool workers forked from a traced process start
with an empty recorder and write their own file.

Nothing in segsolve is edited: the wrappers are installed from outside, in
every segsolve module namespace that holds the original function.
"""

from __future__ import annotations

import atexit
import functools
import json
import multiprocessing.util as mp_util
import os
import sys
import time

import numpy as np


class Recorder:
    """Spans and counts of one process, written to `<out_dir>/spans-<pid>.npz`."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()

    def _reset(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []
        self.dumped = False

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def dump(self) -> None:
        if self.dumped:
            return
        self.dumped = True
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        os.makedirs(self.out_dir, exist_ok=True)
        np.savez(
            os.path.join(self.out_dir, f"spans-{os.getpid()}.npz"),
            table=np.array(json.dumps(table)),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts, dtype=float),
            end=np.array(self.ends, dtype=float),
            parent=np.array(self.parents, dtype=np.int64),
            counts=np.array(json.dumps(self.counts)),
        )

    def _after_fork(self) -> None:
        # a forked pool worker: drop the parent's spans, write its own at exit
        self._reset()
        mp_util.Finalize(self, self.dump, exitpriority=0)


def _wrapper(rec: Recorder, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = len(rec.starts)
        rec.names.append(name)
        rec.parents.append(rec.stack[-1] if rec.stack else -1)
        rec.ends.append(0.0)
        rec.stack.append(idx)
        rec.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.ends[idx] = time.perf_counter()
            rec.stack.pop()
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapped


def _patch_function(rec, module, attr, name, after=None) -> None:
    """Replace `module.attr` in every loaded segsolve module that holds it."""
    orig = getattr(module, attr)
    wrapped = _wrapper(rec, orig, name, after)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("segsolve"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _patch_method(rec, cls, attr, name) -> None:
    setattr(cls, attr, _wrapper(rec, getattr(cls, attr), name))


# counts read at the boundary of a call


def _count_cg(rec, args, kwargs, result):
    rec.add("linear_solver.cg_iterations", result[1].iterations)


def _count_backtrack(rec, args, kwargs, result):
    rec.add("projected_gradient.backtrack_trials", result.shrinks + 1)
    rec.add("projected_gradient.restarts" if result.needs_restart else "projected_gradient.accepted")


def _count_iterations(rec, args, kwargs, result):
    rec.add("projected_gradient.iterations", result[1].iters)


def _count_bytes(key, path_arg):
    def after(rec, args, kwargs, result):
        rec.add(key, os.path.getsize(args[path_arg]))

    return after


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of an imported segsolve (and segsolve.cli, if loaded)."""
    from segsolve import boundary, contours, grid, linear_solver, penalty, projected_gradient
    from segsolve import projection, reporting

    ws = projected_gradient._Workspace
    for attr in ("step_into", "step_norm", "violation_max"):
        _patch_method(rec, ws, attr, f"projected_gradient._Workspace.{attr}")
    fn = _patch_function
    fn(rec, projected_gradient, "pgd_run", "projected_gradient.pgd_run", _count_iterations)
    fn(rec, projected_gradient, "fista_run", "projected_gradient.fista_run", _count_iterations)
    fn(rec, projected_gradient, "_initial_state", "projected_gradient._initial_state")
    fn(rec, projected_gradient, "_backtrack", "projected_gradient._backtrack", _count_backtrack)
    fn(rec, projection, "project_stack_interior", "projection.project_stack_interior")
    fn(rec, grid, "energy_of_stack", "grid.energy_of_stack")
    fn(rec, grid, "field_to_csv", "grid.field_to_csv", _count_bytes("grid.field_csv_bytes", 1))
    fn(rec, linear_solver, "solve_helmholtz_with_info", "linear_solver.solve", _count_cg)
    fn(rec, penalty, "run_penalty", "penalty.run_penalty")
    for sweep in ("_picard_sweep", "_gauss_seidel_sweep", "_semi_implicit_sweep", "_phase_field_sweep"):
        fn(rec, penalty, sweep, "penalty.sweep")
    fn(rec, boundary, "evaluate_bc", "boundary.evaluate_bc")
    fn(rec, contours, "extract_contours", "contours.extract_contours")
    fn(rec, contours, "render_svg", "contours.render_svg")
    fn(rec, contours, "render_tiled_svg", "contours.render_tiled_svg")
    fn(
        rec, reporting, "write_report_json", "reporting.write_report_json",
        _count_bytes("reporting.report_json_bytes", 1),
    )
    fn(
        rec, reporting, "write_history_jsonl", "reporting.write_history_jsonl",
        _count_bytes("reporting.history_jsonl_bytes", 1),
    )
    cli = sys.modules.get("segsolve.cli")
    if cli is not None:
        fn(rec, cli, "cmd_bench", "cli.cmd_bench")
        fn(rec, cli, "_bench_worker", "cli._bench_worker")
        fn(rec, cli, "_run_single", "cli._run_single")
        fn(rec, cli, "_write_artifacts", "cli._write_artifacts")
    atexit.register(rec.dump)
    mp_util.register_after_fork(rec, Recorder._after_fork)


def load_spans(trace_dir: str) -> list[dict]:
    """Every process's spans from a trace directory, one dict per process."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if not (name.startswith("spans-") and name.endswith(".npz")):
            continue
        with np.load(os.path.join(trace_dir, name)) as z:
            table = json.loads(str(z["table"]))
            out.append(
                {
                    "names": np.array(table, dtype=object)[z["name"]],
                    "start": z["start"],
                    "end": z["end"],
                    "parent": z["parent"],
                    "counts": json.loads(str(z["counts"])),
                }
            )
    return out
