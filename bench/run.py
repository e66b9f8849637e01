"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a segsolve checkout: the program is the `src/segsolve`
beside this directory, started with PYTHONPATH pointing at `src`.  A run

  1. repeats whole operations (one solve, or one CLI sweep) until S seconds
     have passed, at least once, and checks every operation's output;
  2. times set-up (fresh interpreter, import, grid and boundary traces)
     FIRST_PROBES times after one warm-up start, then once per operation
     (a library solve's own process starts that way; a CLI sweep is
     followed by one probe), so the samples span the whole run;
  3. times the yardstick (yardstick.py) after each of those timed steps;
  4. for `penalty-sweep-jobs2`, runs the same sweep once at `--jobs 1`
     outside the timed operations and requires byte-identical artifacts.

With `--trace 0` the metrics are the end-to-end ones: times are means over
the run's operations (or set-up probes) scaled by REFERENCE_S over the run's
mean yardstick reading, so that a run in a slow phase of the shared host
reads like one in a quick phase.  With `--trace 1` every process records
spans around the calls into segsolve's modules and the metrics are the
per-layer ones.  The inputs are the built-in boundary data and do not depend
on the seed.  A full record of the run goes to `bench/out/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import yardstick
from tracing import load_spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD = str(BENCH_DIR / "child.py")
FIRST_PROBES = 3
RUN_LIMIT_S = 170  # a run that is still going then is stopped, with its children

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iterations", "count"),
    ("iters_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class OperationFailed(Exception):
    pass


class RunOverdue(BaseException):
    """The run's time limit passed; not an operation failure, so nothing catches it."""


def environment() -> dict:
    """Cores, Python, numpy and its BLAS build, and the BLAS/OpenMP thread variables."""
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))
        },
        # set-up compiles every module when no bytecode is written
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pgid: int) -> None:
    """Kill a child and any pool workers it started."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _overdue(signum, frame):
    raise RunOverdue(f"run did not finish within {RUN_LIMIT_S} s")


def run_child(cmd: list[str], log_stem: Path):
    """Run cmd to its end in its own session; returns (start, wall s, rusage, stdout).

    start is the monotonic clock just before the process was spawned.  If the
    wait is interrupted (the run's time limit), the child's whole process
    group, pool workers included, is killed and reaped.
    """
    t0 = time.monotonic()
    with open(f"{log_stem}.out", "w") as fo, open(f"{log_stem}.err", "w") as fe:
        proc = subprocess.Popen(
            cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT, start_new_session=True
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    stdout = Path(f"{log_stem}.out").read_text()
    if proc.returncode != 0:
        err = Path(f"{log_stem}.err").read_text().strip().splitlines()
        raise OperationFailed(f"exit code {proc.returncode}: {err[-1] if err else ''}")
    return t0, wall, usage, stdout


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def probe_setup(name: str, log_stem: Path, trace_dir) -> tuple[float, float]:
    """(set-up s, import s) of one fresh process that stops before solving."""
    cmd = [sys.executable, CHILD, "setup", name]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    start, _, _, stdout = run_child(cmd, log_stem)
    res = last_json(stdout)
    return res["ready"] - start, res["import_s"]


# ---------------------------------------------------------------- operations


def library_op(name: str, op_dir: Path, trace_dir) -> dict:
    out = op_dir / "result.npz"
    cmd = [sys.executable, CHILD, "op", name, "--out", str(out)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    start, _, usage, stdout = run_child(cmd, op_dir / "child")
    res = last_json(stdout)
    if not res["converged"]:
        raise OperationFailed(f"not converged after {res['iterations']} iterations")
    with np.load(out) as z:
        data = {k: z[k] for k in z.files}
    if name == "pgd-ex41":
        check_pgd(data)
    else:
        check_penalty(data)
    return {
        "solve_s": res["solve_s"],
        "cpu_s": res["cpu_s"],
        "iterations": res["iterations"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": res["ready"] - start,
        "import_s": res["import_s"],
    }


def check_pgd(d: dict) -> None:
    u, hx, hy = d["u"], float(d["hx"]), float(d["hy"])
    trace = checks.ex41_trace(u.shape[-1])
    checks.check_segregated(u)
    checks.check_boundary(u, trace)
    checks.check_energy_matches(u, hx, hy, float(d["final_energy"]))
    checks.check_nonincreasing(d["energies"], start=10)
    checks.check_stationary(u, trace, float(d["alpha"]), hx, hy, float(d["tol"]))


def check_penalty(d: dict) -> None:
    if not bool(np.all(d["stage_converged"])):
        raise checks.CheckFailed(f"stage convergence {d['stage_converged'].tolist()}")
    upper = float(np.max(checks.ex41_trace(d["stage_u"].shape[-1])))
    checks.check_within(float(d["lows"].min()), float(d["highs"].max()), upper)
    hx, hy = float(d["hx"]), float(d["hy"])
    prod = np.prod(d["stage_u"], axis=1)  # (stages, ny, nx)
    zero = np.zeros_like(prod[0])
    norms = [checks.step_norm(p[None], zero[None], hx, hy) for p in prod]
    checks.check_sqrt_eps_rate(d["eps"], norms)


def jobs(w: dict) -> int:
    """Worker processes of a CLI sweep (its --jobs value); 1 for a library solve."""
    args = w.get("args", ("--jobs", "1"))
    return int(args[args.index("--jobs") + 1])


def sweep_cmd(w: dict, args, out_dir: Path, trace_dir) -> list[str]:
    args = list(args) + ["--out", str(out_dir)]
    if trace_dir is None:
        return [sys.executable, "-m", "segsolve", *args]
    return [sys.executable, CHILD, "cli", str(trace_dir), *args]


def read_field(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values (ny, nx), xs, ys) from an `x,y,value` CSV in row-major order."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    xs = np.unique(rows[:, 0])
    ys = np.unique(rows[:, 1])
    return rows[:, 2].reshape(len(ys), len(xs)), xs, ys


def check_sweep(name: str, w: dict, out_dir: Path) -> int:
    """Checks one sweep's artifacts; returns its summed outer iterations."""
    algo = w["args"][2]
    lines = (out_dir / "summary.csv").read_text().splitlines()[1:]
    rows = [ln.split(",") for ln in lines]
    if len(rows) != 9 or any(r[5] != "True" for r in rows):
        raise checks.CheckFailed(f"expected nine converged rows, got {[r[:1] + r[5:6] for r in rows]}")
    for bc in w["bcs"]:
        cell = out_dir / algo / bc
        fields = [read_field(cell / f"u{k}.csv") for k in (1, 2, 3)]
        u = np.stack([f[0] for f in fields])
        xs, ys = fields[0][1], fields[0][2]
        hx, hy = (xs[-1] - xs[0]) / (len(xs) - 1), (ys[-1] - ys[0]) / (len(ys) - 1)
        upper = float(np.max(u[:, checks.ring(u)]))
        try:
            checks.check_nonnegative(u)
            if name == "fista-sweep":
                checks.check_segregated(u)
                report = json.loads((cell / "report.json").read_text())
                checks.check_energy_matches(u, hx, hy, report["final_energy"])
                history = [json.loads(ln) for ln in (cell / "history.jsonl").read_text().splitlines()]
                checks.check_nonincreasing([h["energy"] for h in history])
                delta = 1e-3 * upper
                contour = np.loadtxt(cell / "contours.csv", delimiter=",", skiprows=1, ndmin=2)
                for k in (1, 2, 3):
                    verts = contour[contour[:, 0] == k][:, 2:4]
                    checks.check_contour_levels(u[k - 1], xs, ys, delta, verts)
            else:
                checks.check_within(float(u.min()), float(u.max()), upper)
        except checks.CheckFailed as exc:
            raise checks.CheckFailed(f"{bc}: {exc}") from None
    return sum(int(r[2]) for r in rows)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def cli_op(name: str, w: dict, op_dir: Path, trace_dir) -> dict:
    out_dir = op_dir / "sweep"
    _, wall, usage, _ = run_child(sweep_cmd(w, w["args"], out_dir, trace_dir), op_dir / "cli")
    iterations = check_sweep(name, w, out_dir)
    return {
        "solve_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "iterations": iterations,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "artifact_bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
    }


def check_jobs1(w: dict, run_dir: Path, first_sweep: Path) -> None:
    """The same sweep at --jobs 1 writes byte-identical artifacts to the pooled one."""
    ref = run_dir / "reference"
    ref.mkdir()
    args = list(w["args"])
    args[args.index("--jobs") + 1] = "1"
    run_child(sweep_cmd(w, args, ref / "sweep", None), ref / "cli")
    a, b = tree_bytes(first_sweep), tree_bytes(ref / "sweep")
    if a.keys() != b.keys():
        raise checks.CheckFailed(f"artifact sets differ: {sorted(a.keys() ^ b.keys())[:5]}")
    differ = [k for k in a if a[k] != b[k]]
    if differ:
        raise checks.CheckFailed(f"{len(differ)} artifact(s) differ from --jobs 1, e.g. {differ[0]}")


# ---------------------------------------------------------------- per-layer metrics

PER_LAYER = (
    ("projected_gradient.step_ms", "ms"),
    ("projection.project_ms", "ms"),
    ("grid.energy_ms", "ms"),
    ("projected_gradient.step_norm_ms", "ms"),
    ("projected_gradient.violation_ms", "ms"),
    ("projected_gradient.loop_self_ms", "ms"),
    ("projected_gradient.initial_state_s", "s"),
    ("projected_gradient.backtrack_trials", "count"),
    ("projected_gradient.accepted_per_trial", "ratio"),
    ("projected_gradient.restarts", "count"),
    ("linear_solver.cg_iterations", "count"),
    ("linear_solver.cg_per_solve", "count"),
    ("linear_solver.cg_iter_us", "us"),
    ("linear_solver.solve_ms", "ms"),
    ("penalty.sweeps", "count"),
    ("penalty.sweep_self_ms", "ms"),
    ("penalty.loop_self_ms", "ms"),
    ("contours.extract_ms", "ms"),
    ("contours.render_svg_ms", "ms"),
    ("reporting.report_json_ms", "ms"),
    ("reporting.report_json_bytes", "bytes"),
    ("reporting.history_jsonl_ms", "ms"),
    ("reporting.history_jsonl_bytes", "bytes"),
    ("grid.field_csv_ms", "ms"),
    ("grid.field_csv_bytes", "bytes"),
    ("cli.run_single_s", "s"),
    ("cli.write_artifacts_s", "s"),
    ("cli.sheet_ms", "ms"),
    ("cli.pool_busy_ratio", "ratio"),
    ("cli.artifact_bytes", "bytes"),
    ("boundary.evaluate_ms", "ms"),
    ("cli.import_s", "s"),
)


class SpanTable:
    """Durations, self times and direct-child sums of every span of a run's processes."""

    def __init__(self, processes: list[dict]):
        names, dur, selfs, parents_named = [], [], [], []
        self.counts: dict[str, float] = {}
        for p in processes:
            d = p["end"] - p["start"]
            child = np.zeros_like(d)
            has_parent = p["parent"] >= 0
            np.add.at(child, p["parent"][has_parent], d[has_parent])
            names.append(p["names"])
            dur.append(d)
            selfs.append(d - child)
            parent_name = np.full(len(d), "", dtype=object)
            parent_name[has_parent] = p["names"][p["parent"][has_parent]]
            parents_named.append(parent_name)
            for k, v in p["counts"].items():
                self.counts[k] = self.counts.get(k, 0.0) + v
        cat = lambda xs, dtype: np.concatenate(xs) if xs else np.array([], dtype=dtype)  # noqa: E731
        self.names = cat(names, object)
        self.dur = cat(dur, float)
        self.self = cat(selfs, float)
        self.parent = cat(parents_named, object)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.names == name))

    def total(self, name: str) -> float:
        return float(self.dur[self.names == name].sum())

    def mean(self, name: str) -> float:
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def self_total(self, name: str) -> float:
        return float(self.self[self.names == name].sum())

    def children_total(self, parent: str, child: str) -> float:
        return float(self.dur[(self.names == child) & (self.parent == parent)].sum())


def layer_metrics(table: SpanTable, ops: int, jobs: int, import_s: list[float], artifact_bytes) -> dict:
    c = table.counts.get
    per = lambda total, n: total / n if n else 0.0  # noqa: E731
    runs = ("projected_gradient.pgd_run", "projected_gradient.fista_run")
    trials = c("projected_gradient.backtrack_trials", 0.0)
    cg = c("linear_solver.cg_iterations", 0.0)
    sweeps = table.calls("penalty.sweep")
    pen_loop = (
        table.total("penalty.run_penalty")
        - table.children_total("penalty.run_penalty", "penalty.sweep")
        - table.children_total("penalty.run_penalty", "linear_solver.solve")
    )
    bench = table.total("cli.cmd_bench")
    return {
        "projected_gradient.step_ms": 1e3 * table.mean("projected_gradient._Workspace.step_into"),
        "projection.project_ms": 1e3 * table.mean("projection.project_stack_interior"),
        "grid.energy_ms": 1e3 * table.mean("grid.energy_of_stack"),
        "projected_gradient.step_norm_ms": 1e3 * table.mean("projected_gradient._Workspace.step_norm"),
        "projected_gradient.violation_ms": 1e3 * table.mean("projected_gradient._Workspace.violation_max"),
        "projected_gradient.loop_self_ms": 1e3
        * per(sum(table.self_total(r) for r in runs), c("projected_gradient.iterations", 0.0)),
        "projected_gradient.initial_state_s": table.mean("projected_gradient._initial_state"),
        "projected_gradient.backtrack_trials": trials / ops,
        "projected_gradient.accepted_per_trial": per(c("projected_gradient.accepted", 0.0), trials),
        "projected_gradient.restarts": c("projected_gradient.restarts", 0.0) / ops,
        "linear_solver.cg_iterations": cg / ops,
        "linear_solver.cg_per_solve": per(cg, table.calls("linear_solver.solve")),
        "linear_solver.cg_iter_us": 1e6 * per(table.total("linear_solver.solve"), cg),
        "linear_solver.solve_ms": 1e3 * table.mean("linear_solver.solve"),
        "penalty.sweeps": sweeps / ops,
        "penalty.sweep_self_ms": 1e3 * per(table.self_total("penalty.sweep"), sweeps),
        "penalty.loop_self_ms": 1e3 * per(pen_loop, sweeps),
        "contours.extract_ms": 1e3 * table.mean("contours.extract_contours"),
        "contours.render_svg_ms": 1e3 * table.mean("contours.render_svg"),
        "reporting.report_json_ms": 1e3 * table.mean("reporting.write_report_json"),
        "reporting.report_json_bytes": c("reporting.report_json_bytes", 0.0) / ops,
        "reporting.history_jsonl_ms": 1e3 * table.mean("reporting.write_history_jsonl"),
        "reporting.history_jsonl_bytes": c("reporting.history_jsonl_bytes", 0.0) / ops,
        "grid.field_csv_ms": 1e3 * table.mean("grid.field_to_csv"),
        "grid.field_csv_bytes": c("grid.field_csv_bytes", 0.0) / ops,
        "cli.run_single_s": table.mean("cli._run_single"),
        "cli.write_artifacts_s": table.mean("cli._write_artifacts"),
        "cli.sheet_ms": 1e3 * table.mean("contours.render_tiled_svg"),
        "cli.pool_busy_ratio": per(table.total("cli._bench_worker"), jobs * bench),
        "cli.artifact_bytes": statistics.median(artifact_bytes) if artifact_bytes else 0.0,
        "boundary.evaluate_ms": 1e3 * table.mean("boundary.evaluate_bc"),
        "cli.import_s": statistics.median(import_s),
    }


# ---------------------------------------------------------------- main


def run(args) -> tuple[dict, dict]:
    name = args.workload
    w = WORKLOADS[name]
    tracing = bool(args.trace)
    run_dir = OUT / f"run-{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    try:
        setup_trace = run_dir / "trace-setup" if tracing else None
        # not timed: warms the file cache, and the bytecode cache where Python writes one
        probe_setup(name, run_dir / "warmup", None)
        # the machine's speed, read after every timed step; see yardstick.py
        readings = [yardstick.measure()]
        probes = []
        for k in range(FIRST_PROBES):
            probes.append(probe_setup(name, run_dir / f"setup{k}", setup_trace))
            readings.append(yardstick.measure())

        ops, failures, trace_dirs = [], [], [setup_trace] if tracing else []
        attempted, first_sweep = 0, None
        t0 = time.monotonic()
        while True:
            k, attempted = attempted, attempted + 1
            op_dir = run_dir / f"op{k}"
            op_dir.mkdir()
            trace_dir = op_dir / "trace" if tracing else None
            try:
                if w["kind"] == "lib":
                    op = library_op(name, op_dir, trace_dir)
                else:
                    op = cli_op(name, w, op_dir, trace_dir)
                    if first_sweep is None:
                        first_sweep = op_dir / "sweep"
            except (OperationFailed, checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                # a missing or malformed artifact fails the operation like a failed check
                failures.append(f"op{k}: {type(exc).__name__}: {exc}")
                print(f"operation {k} failed: {exc}", file=sys.stderr)
                op = None
            readings.append(yardstick.measure())
            if op is not None:
                ops.append(op)
                if w["kind"] == "lib":
                    probes.append((op["setup_s"], op["import_s"]))
            if w["kind"] == "cli":
                probes.append(probe_setup(name, op_dir / "setup", setup_trace))
                readings.append(yardstick.measure())
            if tracing:
                trace_dirs.append(trace_dir)
            if time.monotonic() - t0 >= args.seconds:
                break

        if w.get("check_jobs1") and first_sweep is not None:
            try:
                check_jobs1(w, run_dir, first_sweep)
            except (OperationFailed, checks.CheckFailed) as exc:
                failures.append(f"reference: {type(exc).__name__}: {exc}")
                print(f"reference check failed: {exc}", file=sys.stderr)

        setup_wall, imports = [p[0] for p in probes], [p[1] for p in probes]
        keys = ("solve_s", "cpu_s", "iterations", "peak_rss_mb")
        samples = {key: [op[key] for op in ops] for key in keys}
        scale = yardstick.factor(readings)
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "setup_s_samples": setup_wall,
            "yardstick_s_samples": readings,
            "scale": scale,
            "import_s_samples": imports,
            "samples": samples,
            "artifact_bytes": [op["artifact_bytes"] for op in ops if "artifact_bytes" in op],
            "failures": failures,
        }
        if tracing:
            processes = [p for d in trace_dirs if d.is_dir() for p in load_spans(str(d))]
            table = SpanTable(processes)
            cells = table.calls("cli._bench_worker")
            if w["kind"] == "cli" and cells != len(w["bcs"]) * len(ops):
                # pool workers started by spawn or forkserver run without the wrappers
                raise OperationFailed(f"traced {cells} sweep cells, expected {len(w['bcs']) * len(ops)}")
            metrics = layer_metrics(
                table, max(len(ops), 1), jobs(w), imports, record["artifact_bytes"]
            )
            units = dict(PER_LAYER)
        else:
            # means over the run, at the yardstick's reference speed; the raw
            # samples stay in the record
            mean = statistics.fmean
            metrics = {"setup_s": scale * mean(setup_wall)}
            if ops:
                solve_s = scale * mean(samples["solve_s"])
                iterations = statistics.median(samples["iterations"])
                metrics.update(
                    solve_s=solve_s,
                    iterations=iterations,
                    iters_per_s=iterations / solve_s,
                    cpu_s=scale * mean(samples["cpu_s"]),
                    peak_rss_mb=statistics.median(samples["peak_rss_mb"]),
                )
            units = dict(END_TO_END)
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        result = {
            "correct": not failures and bool(ops),
            "attempted": attempted,
            "failed": attempted - len(ops),
            "metrics": record["metrics"],
        }
        record["result"] = result
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (results / f"{name}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json").write_text(
            json.dumps(record, indent=1)
        )
        return result, record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "segsolve" / "__init__.py").is_file():
        print(f"error: no segsolve sources at {SRC}; run from a segsolve checkout", file=sys.stderr)
        return 2
    if jobs(WORKLOADS[args.workload]) == 1:
        # the yardstick and a one-process operation share one core, so both
        # see the same host speed; the children inherit the affinity
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _overdue)
    signal.alarm(RUN_LIMIT_S)
    try:
        result, record = run(args)
    except (OperationFailed, RunOverdue) as exc:  # set-up, the trace or the time limit failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    env = record["environment"]
    print(
        f"environment: runs on cores {env['cpus_usable']} of {env['cpu_count']}, "
        f"Python {env['python']}, numpy {env['numpy']}, "
        f"BLAS {env['blas'].get('name')} {env['blas'].get('version')}, "
        f"thread variables {env['thread_env'] or 'unset'}, load {env['loadavg_1m']:.2f}"
    )
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
