"""One benchmark process: a set-up probe, one library solve, or a traced CLI sweep.

    python bench/child.py setup WORKLOAD [--trace-dir DIR]
    python bench/child.py op WORKLOAD --out FILE.npz [--trace-dir DIR]
    python bench/child.py cli TRACE_DIR ARGS...

`setup` starts, imports segsolve, builds the workload's grid and boundary
traces, and prints the monotonic clock at that point.  `op` does the same and
then runs the workload's solve once, saving what the checks need.  `cli`
installs the spans and runs `segsolve.cli.main(ARGS)`.  segsolve must be
importable, which run.py arranges through PYTHONPATH.  Each mode prints one
JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from workloads import PENALTY_LADDER, WORKLOADS


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _start_tracing(trace_dir):
    if trace_dir is None:
        return
    import tracing

    tracing.install(tracing.Recorder(trace_dir))


def _set_up(name: str, trace_dir):
    """Import segsolve and build the grid and traces; returns (grid, traces, import_s)."""
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    if w["kind"] == "cli":
        import segsolve.cli  # noqa: F401  (what `python -m segsolve` imports)
    import segsolve
    import_s = time.perf_counter() - t0
    _start_tracing(trace_dir)
    grid = segsolve.build_grid(w["n"], w["n"], (-1.0, 1.0, -1.0, 1.0))
    traces = [segsolve.evaluate_bc(segsolve.builtin_config(bc), grid) for bc in w["bcs"]]
    return grid, traces, import_s


def _solve(name: str, grid, trace, out: str) -> dict:
    import numpy as np
    from segsolve import penalty, projected_gradient

    if name == "pgd-ex41":
        cpu0, t0 = _cpu_s(), time.perf_counter()
        state, report = projected_gradient.pgd_run(grid, trace)
        solve_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
        np.savez(
            out,
            u=state.stack(),
            energies=np.array([h["energy"] for h in report.history]),
            final_energy=report.final_energy,
            alpha=report.meta["alpha"],
            tol=report.meta["tol"],
            hx=grid.hx,
            hy=grid.hy,
        )
    else:
        lows, highs, stage_last = [], [], {}

        def watch(eps, it, stack):
            lows.append(float(stack.min()))
            highs.append(float(stack.max()))
            stage_last[eps] = stack.copy()

        cfg = penalty.PenaltyConfig(epsilon_target=PENALTY_LADDER[-1], scheme="picard", alpha=0.5)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        state, _, report = penalty.run_penalty(
            grid, trace, cfg, stages=list(PENALTY_LADDER), iterate_hook=watch
        )
        solve_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
        np.savez(
            out,
            lows=np.array(lows),
            highs=np.array(highs),
            eps=np.array(list(stage_last)),
            stage_u=np.stack(list(stage_last.values())),
            stage_converged=np.array([s["converged"] for s in report.meta["stages"]]),
            hx=grid.hx,
            hy=grid.hy,
        )
    return {
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "iterations": report.iters,
        "converged": bool(report.converged),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        import segsolve.cli

        _start_tracing(argv[1])
        return segsolve.cli.main(argv[2:])

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "op"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--out")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    grid, traces, import_s = _set_up(args.workload, args.trace_dir)
    result = {"ready": time.monotonic(), "import_s": import_s}
    if args.mode == "op":
        result.update(_solve(args.workload, grid, traces[0], args.out))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
