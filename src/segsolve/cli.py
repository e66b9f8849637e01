"""Command-line entry point.

Subcommands:
  solve             run one solver on one boundary configuration
  bench             run the nine-configuration benchmark suite
  project-selftest  compare the pointwise projection against face enumeration
  contours          re-extract level curves from saved field CSVs

Exit codes, set in `main` for every command: 0 success/converged; 1 bad
input, reported as one `error: ...` line (a configuration error, an
unreadable input file, an output path that cannot be written); 2
non-convergence or failed bench cells (artifacts are still written), or an
inner solver failure (`inner solver failed: ...`, nothing written).  Flags
override config-file values which override defaults.  The environment
variable SEGSOLVE_OUT supplies the default output root.

One table, `_ALGORITHMS`, says what each algorithm reads: its row builds the
solver's config and decides what the report's `config` echo holds, which
`solve --config report.json` replays.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .boundary import BUILTIN_IDS, builtin_config, evaluate_bc, sup_bound, trace_from_csv
from .contours import (
    ContourSet,
    check_delta,
    contours_to_csv,
    extract_contours,
    render_svg,
    render_tiled_svg,
)
from .grid import SystemState, build_grid, check_fields, field_from_csv, field_to_csv, fits
from .linear_solver import LinearSolveError
from .penalty import PenaltyConfig, run_penalty
from .projected_gradient import FistaConfig, PgdConfig, fista_run, pgd_run
from .projection import projection_selftest
from .reporting import write_history_jsonl, write_report_json

_PENALTY_READS = dict(
    eps="epsilon_target", eps_start="epsilon_start", eps_factor="continuation_factor",
    tol="outer_tol", max_iters="max_outer",
)
_DAMPED_READS = {**_PENALTY_READS, "damping": "alpha"}


class _Algorithm(NamedTuple):
    config: type  # the solver's config class
    reads: dict[str, str]  # RunConfig field -> config field; the config echo holds these
    fixed: dict = {}


# no runners in the table: wrappers around them are installed on their module names
_ALGORITHMS = {
    "penalty-picard": _Algorithm(PenaltyConfig, _DAMPED_READS, {"scheme": "picard"}),
    "penalty-gs": _Algorithm(PenaltyConfig, _PENALTY_READS, {"scheme": "gauss_seidel"}),
    "penalty-semi": _Algorithm(PenaltyConfig, _PENALTY_READS, {"scheme": "semi_implicit"}),
    "penalty-phasefield": _Algorithm(PenaltyConfig, _DAMPED_READS, {"scheme": "phase_field"}),
    "pgd": _Algorithm(PgdConfig, dict(alpha="alpha", tol="tol", max_iters="max_iters")),
    "fista": _Algorithm(FistaConfig, dict(alpha="alpha0", tol="tol", max_iters="max_iters")),
}

ALGORITHMS = tuple(_ALGORITHMS)

# the RunConfig fields some algorithm reads; the others leave them out of their echo
_SOLVER_FIELDS = {name for algo in _ALGORITHMS.values() for name in algo.reads}

BENCH_BCS = tuple(f"bc{k}" for k in range(1, 10))


@dataclass
class RunConfig:
    algorithm: str = "fista"
    bc: str = "bc1"
    n: int = 101
    eps: float = 1e-6
    eps_start: float | None = None
    eps_factor: float = 0.1
    alpha: float | None = None
    damping: float = 0.5
    tol: float | None = None
    max_iters: int | None = None
    delta: float | None = None
    out: str | None = None
    jobs: int = 1
    deterministic: bool = False
    custom_bc_csv: str | None = None

    def validate(self) -> None:
        if fits(self.n, "int"):
            _grid(self.n)  # an n below 3 gets the grid's message, not check_fields' n >= 1
        check_fields(self)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
            )
        if self.bc != "custom" and self.bc not in BUILTIN_IDS:
            raise ValueError(
                f"unknown boundary config {self.bc!r}; choose from "
                f"{', '.join(BUILTIN_IDS)} or 'custom'"
            )
        if self.bc == "custom" and not self.custom_bc_csv:
            raise ValueError("bc 'custom' requires custom_bc_csv in the config file")
        if self.delta is not None:
            check_delta(self.delta)
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a previously written report.json
    data.pop("seed", None)  # written by older versions; nothing reads it
    types = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, value in data.items():
        if not fits(value, types[name]):
            raise ValueError(f"config key {name!r} must be {types[name]}, got {value!r}")
    return data


def _merge_config(args: argparse.Namespace, bench_keys: tuple[str, ...] = ()) -> RunConfig:
    """Defaults, then the config file, then the flags; bench_keys may not come from the file."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
        for key in bench_keys:
            if key in values:
                raise ValueError(f"config key {key!r} belongs to bench; solve runs one cell")
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            values[f.name] = cli_val
    return RunConfig(**values)


def _resolve_trace(cfg: RunConfig, grid):
    if cfg.bc == "custom":
        return trace_from_csv(cfg.custom_bc_csv, grid)
    return evaluate_bc(builtin_config(cfg.bc), grid)


def _grid(n: int):
    return build_grid(n, n, (-1.0, 1.0, -1.0, 1.0))


def _solver_config(cfg: RunConfig, grid) -> PenaltyConfig | PgdConfig | FistaConfig:
    """The solver's own config, step sizes checked on grid; ValueError for values it rejects."""
    algo = _ALGORITHMS[cfg.algorithm]
    # values left unset (None) are not passed, so the config class supplies them
    given = {ours: getattr(cfg, run) for run, ours in algo.reads.items()}
    solver_cfg = algo.config(**{k: v for k, v in given.items() if v is not None}, **algo.fixed)
    if isinstance(solver_cfg, PgdConfig):
        solver_cfg.resolve_alpha(grid)
    elif isinstance(solver_cfg, FistaConfig):
        solver_cfg.resolve_alphas(grid)
    return solver_cfg


def _run_single(cfg: RunConfig):
    """Run one (algorithm, bc) pair; returns (state, report, trace)."""
    grid = _grid(cfg.n)
    trace = _resolve_trace(cfg, grid)
    solver_cfg = _solver_config(cfg, grid)
    if isinstance(solver_cfg, PenaltyConfig):
        state, _, report = run_penalty(grid, trace, solver_cfg)
    elif isinstance(solver_cfg, PgdConfig):
        state, report = pgd_run(grid, trace, solver_cfg)
    else:
        state, report = fista_run(grid, trace, solver_cfg)
    report.meta["n"] = cfg.n
    # the echo holds what the run read: machine-local fields stay out, so that
    # identical runs into different directories produce byte-identical
    # reports, and so do the values the algorithm does not read
    skip = {"out", "jobs", *_SOLVER_FIELDS.difference(_ALGORITHMS[cfg.algorithm].reads)}
    report.meta["config"] = {k: v for k, v in asdict(cfg).items() if k not in skip}
    if cfg.deterministic:
        report.wall_time_seconds = 0.0
    return state, report, trace


def _delta_of_bound(m: float) -> float:
    """Default contour threshold for fields bounded by m: 1e-3 * m, or 1e-3 if m = 0."""
    return 1e-3 * m if m > 0.0 else 1e-3


def _default_delta(cfg: RunConfig, trace) -> float:
    if cfg.delta is not None:
        return cfg.delta
    if _ALGORITHMS[cfg.algorithm].config is PenaltyConfig:
        return float(np.sqrt(cfg.eps))
    return _delta_of_bound(sup_bound(trace))


def _write_contours(outdir: str, state: SystemState, delta: float) -> ContourSet:
    contours = extract_contours(state, delta)
    with open(os.path.join(outdir, "contours.svg"), "w") as fh:
        fh.write(render_svg(contours, state.grid))
    contours_to_csv(contours, os.path.join(outdir, "contours.csv"))
    return contours


def _write_artifacts(outdir: str, state: SystemState, report, delta: float) -> ContourSet:
    os.makedirs(outdir, exist_ok=True)
    for k, comp in enumerate(state.components, start=1):
        field_to_csv(comp, os.path.join(outdir, f"u{k}.csv"))
    lines = write_history_jsonl(report.history, os.path.join(outdir, "history.jsonl"))
    write_report_json(report, os.path.join(outdir, "report.json"), lines)
    return _write_contours(outdir, state, delta)


def _output_dir(cfg: RunConfig, suffix: str) -> str:
    if cfg.out:
        return cfg.out
    root = os.environ.get("SEGSOLVE_OUT", ".")
    return os.path.join(root, suffix)


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, bench_keys=("jobs",))
    cfg.validate()
    outdir = _output_dir(cfg, f"{cfg.algorithm}_{cfg.bc}_n{cfg.n}")
    state, report, trace = _run_single(cfg)
    _write_artifacts(outdir, state, report, _default_delta(cfg, trace))
    print(
        f"{cfg.algorithm} on {cfg.bc} (n={cfg.n}): "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"in {report.iters} iterations, energy {report.final_energy:.6g} -> {outdir}"
    )
    return 0 if report.converged else 2


def _bench_worker(payload: dict):
    """Run one bench cell; returns its summary values and ContourSet, or its error."""
    cfg = RunConfig(**payload)
    try:
        state, report, trace = _run_single(cfg)
    except Exception as exc:  # recorded in the summary, the suite continues
        return {"error": str(exc)}
    outdir = os.path.join(cfg.out, cfg.algorithm, cfg.bc)
    contours = _write_artifacts(outdir, state, report, _default_delta(cfg, trace))
    return {
        "converged": report.converged,
        "iterations": report.iters,
        "final_energy": report.final_energy,
        "final_violation": report.final_violation_max,
        "wall_time_seconds": report.wall_time_seconds,
        "contours": contours,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    algos = [a.strip() for a in (args.algos or "").split(",") if a.strip()]
    if not algos:
        raise ValueError("at least one algorithm is required (--algos)")
    if len(set(algos)) < len(algos):
        raise ValueError("an algorithm is listed more than once in --algos")
    outroot = _output_dir(cfg, f"bench_n{cfg.n}")
    cells = [
        replace(cfg, bc=bc, algorithm=algo, out=outroot) for bc in BENCH_BCS for algo in algos
    ]
    # cells of one algorithm differ only in their built-in bc, on which neither
    # check depends: one cell per algorithm checks every value before any runs
    for cell in cells[: len(algos)]:
        cell.validate()
        _solver_config(cell, _grid(cell.n))

    os.makedirs(outroot, exist_ok=True)
    payloads = [asdict(cell) for cell in cells]
    # the pool starts all its workers at once, so it gets no more than there are cells
    jobs = min(cfg.jobs, len(cells))
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        results = list((pool.map if pool else map)(_bench_worker, payloads))

    with open(os.path.join(outroot, "summary.csv"), "w", newline="") as fh:
        fh.write("bc,algorithm,iterations,final_energy,final_violation,converged,wall_time_seconds\n")
        for cell, res in zip(cells, results):
            bc, algo = cell.bc, cell.algorithm
            if "error" in res:
                print(f"bench: {bc} {algo} failed: {res['error']}", file=sys.stderr)
                fh.write(f"{bc},{algo},,,,error,\n")
                continue
            fh.write(
                f"{bc},{algo},{res['iterations']},{res['final_energy']:.17g},"
                f"{res['final_violation']:.17g},{res['converged']},"
                f"{res['wall_time_seconds']:.17g}\n"
            )

    for algo in algos:
        entries = [
            (cell.bc, res.get("contours", ContourSet(delta=0.0)))
            for cell, res in zip(cells, results)
            if cell.algorithm == algo
        ]
        with open(os.path.join(outroot, f"{algo}_sheet.svg"), "w") as fh:
            fh.write(render_tiled_svg(entries, _grid(cfg.n)))

    n_ok = sum(1 for r in results if r.get("converged"))
    print(f"bench: {n_ok}/{len(results)} runs converged -> {outroot}")
    return 0 if n_ok == len(results) else 2


def cmd_project_selftest(args: argparse.Namespace) -> int:
    ok, failures = projection_selftest(args.count, args.seed)
    if ok:
        print(f"projection selftest: {args.count} vectors OK (seed {args.seed})")
        return 0
    v, d2, best, k, k_exp = failures[0]
    print(
        f"projection selftest FAILED on v={v.tolist()}: distance^2 {d2!r} vs "
        f"face minimum {best!r} (k={k}, expected {k_exp})",
        file=sys.stderr,
    )
    return 2


def cmd_contours(args: argparse.Namespace) -> int:
    if args.delta is not None:
        check_delta(args.delta)
    comps = [field_from_csv(os.path.join(args.fields_dir, f"u{k}.csv")) for k in (1, 2, 3)]
    state = SystemState(*comps)  # ValueError unless the three share a grid
    delta = args.delta
    if delta is None:
        delta = _delta_of_bound(max(float(np.max(np.abs(c.values))) for c in comps))
    outdir = args.out or args.fields_dir
    os.makedirs(outdir, exist_ok=True)
    contours = _write_contours(outdir, state, delta)
    n_polys = sum(len(v) for v in contours.polylines.values())
    print(f"extracted {n_polys} polylines at delta={delta:g} -> {outdir}")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bc", help=f"boundary config id ({', '.join(BUILTIN_IDS)} or custom)")
    p.add_argument("--n", type=int, help="nodes per coordinate direction (default 101)")
    p.add_argument("--eps", type=float, help="penalty epsilon target (default 1e-6)")
    p.add_argument("--eps-start", dest="eps_start", type=float, help="continuation start epsilon")
    p.add_argument("--eps-factor", dest="eps_factor", type=float, help="continuation ratio per stage")
    p.add_argument("--alpha", type=float, help="step size for pgd/fista (default 0.1h^2 / 0.03h^2)")
    p.add_argument(
        "--damping", type=float,
        help="penalty damping weight (default 0.5); penalty-gs and penalty-semi ignore it",
    )
    p.add_argument("--tol", type=float, help="outer step-norm tolerance (default 1e-8)")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="outer iteration cap")
    p.add_argument("--delta", type=float, help="contour threshold (default sqrt(eps) or 1e-3 M)")
    p.add_argument("--out", help="output directory (default under $SEGSOLVE_OUT)")
    p.add_argument(
        "--deterministic", action="store_true", default=None, help="byte-reproducible artifacts"
    )
    p.add_argument("--config", help="JSON config file (RunConfig keys, or a report.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segsolve",
        description="Solvers for three-component elliptic systems with the "
        "partial segregation constraint u1*u2*u3 = 0.",
    )
    parser.add_argument("--version", action="version", version=f"segsolve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one boundary configuration")
    p_solve.add_argument("--algo", dest="algorithm", help=f"one of {', '.join(ALGORITHMS)}")
    _add_run_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run all nine benchmark boundary configurations")
    p_bench.add_argument("--algos", help="comma-separated algorithm list")
    p_bench.add_argument("--jobs", type=int, help="parallel runs (default 1)")
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("project-selftest", help="projection vs face-enumeration oracle")
    p_self.add_argument("--count", type=int, default=100000)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_project_selftest)

    p_cont = sub.add_parser("contours", help="re-extract contours from saved u1/u2/u3 CSVs")
    p_cont.add_argument("fields_dir", help="directory holding u1.csv, u2.csv, u3.csv")
    p_cont.add_argument("--delta", type=float, help="contour threshold")
    p_cont.add_argument("--out", help="output directory (default: fields_dir)")
    p_cont.set_defaults(func=cmd_contours)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place that turns its errors into exit codes.

    numpy's floating-point warnings are off: a value that overflows or turns
    NaN reaches a check that reports it, and stderr holds only that report.
    """
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except LinearSolveError as exc:
        print(f"inner solver failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # bad input, unreadable files, unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
