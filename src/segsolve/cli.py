"""Command-line entry point.

Subcommands:
  solve             run one solver on one boundary configuration
  bench             run the nine-configuration benchmark suite
  project-selftest  compare the pointwise projection against face enumeration
  contours          re-extract level curves from saved field CSVs

Exit codes: 0 success/converged, 1 configuration error, 2 non-convergence or
failed runs (artifacts are still written).  Flags override config-file values
which override defaults.  The environment variable SEGSOLVE_OUT supplies the
default output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .boundary import BUILTIN_IDS, builtin_config, evaluate_bc, sup_bound, trace_from_csv
from .contours import (
    ContourSet,
    contours_to_csv,
    extract_contours,
    render_svg,
    render_tiled_svg,
)
from .grid import SystemState, build_grid, field_from_csv, field_to_csv
from .linear_solver import LinearSolveError
from .penalty import PenaltyConfig, run_penalty
from .projected_gradient import FistaConfig, PgdConfig, fista_run, pgd_run
from .projection import projection_selftest
from .reporting import write_history_jsonl, write_report_json

_PENALTY_SCHEMES = {
    "penalty-picard": "picard",
    "penalty-gs": "gauss_seidel",
    "penalty-semi": "semi_implicit",
    "penalty-phasefield": "phase_field",
}

ALGORITHMS = (*_PENALTY_SCHEMES, "pgd", "fista")

BENCH_BCS = tuple(f"bc{k}" for k in range(1, 10))


class ConfigError(ValueError):
    pass


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
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
            )
        if self.bc != "custom" and self.bc not in BUILTIN_IDS:
            raise ConfigError(
                f"unknown boundary config {self.bc!r}; choose from "
                f"{', '.join(BUILTIN_IDS)} or 'custom'"
            )
        if self.bc == "custom" and not self.custom_bc_csv:
            raise ConfigError("bc 'custom' requires custom_bc_csv in the config file")
        if self.n < 3:
            raise ConfigError("resolution n must be >= 3")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.delta is not None and not self.delta > 0.0:
            raise ConfigError("contour threshold delta must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a previously written report.json
    data.pop("seed", None)  # written by older versions; nothing reads it
    types = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in data.items():
        if not _has_type(value, types[name]):
            raise ConfigError(f"config key {name!r} must be {types[name]}, got {value!r}")
    return data


def _has_type(value, annotation: str) -> bool:
    """Whether a JSON value fits a RunConfig annotation such as 'int' or 'float | None'.

    A bool is no number, and an int is a float.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            values[f.name] = cli_val
    return RunConfig(**values)


def _resolve_trace(cfg: RunConfig, grid):
    if cfg.bc == "custom":
        return trace_from_csv(cfg.custom_bc_csv, grid)
    return evaluate_bc(builtin_config(cfg.bc), grid)


def _given(**values) -> dict:
    """The values that were set; the config classes supply the rest."""
    return {k: v for k, v in values.items() if v is not None}


def _solver_config(cfg: RunConfig, grid) -> PenaltyConfig | PgdConfig | FistaConfig:
    """The solver's own config, step sizes checked on grid; ValueError for values it rejects."""
    if cfg.algorithm in _PENALTY_SCHEMES:
        eps_start = cfg.eps_start if cfg.eps_start is not None else max(1e-2, cfg.eps)
        return PenaltyConfig(
            epsilon_target=cfg.eps,
            epsilon_start=eps_start,
            continuation_factor=cfg.eps_factor,
            alpha=cfg.damping,
            scheme=_PENALTY_SCHEMES[cfg.algorithm],
            **_given(outer_tol=cfg.tol, max_outer=cfg.max_iters),
        )
    if cfg.algorithm == "pgd":
        pgd_cfg = PgdConfig(**_given(alpha=cfg.alpha, tol=cfg.tol, max_iters=cfg.max_iters))
        pgd_cfg.resolve_alpha(grid)
        return pgd_cfg
    fista_cfg = FistaConfig(**_given(alpha0=cfg.alpha, tol=cfg.tol, max_iters=cfg.max_iters))
    fista_cfg.resolve_alphas(grid)
    return fista_cfg


def _run_single(cfg: RunConfig):
    """Run one (algorithm, bc) pair; returns (state, report, trace)."""
    grid = build_grid(cfg.n, cfg.n, (-1.0, 1.0, -1.0, 1.0))
    trace = _resolve_trace(cfg, grid)
    solver_cfg = _solver_config(cfg, grid)
    if cfg.algorithm in _PENALTY_SCHEMES:
        state, _, report = run_penalty(grid, trace, solver_cfg)
    elif cfg.algorithm == "pgd":
        state, report = pgd_run(grid, trace, solver_cfg)
    else:
        state, report = fista_run(grid, trace, solver_cfg)
    report.bc_id = cfg.bc
    report.meta["n"] = cfg.n
    # machine-local fields stay out of the echo so identical runs into
    # different directories produce byte-identical reports
    echo = asdict(cfg)
    echo.pop("out", None)
    echo.pop("jobs", None)
    report.meta["config"] = echo
    if cfg.deterministic:
        report.wall_time_seconds = 0.0
    return state, report, trace


def _delta_of_bound(m: float) -> float:
    """Default contour threshold for fields bounded by m: 1e-3 * m, or 1e-3 if m = 0."""
    return 1e-3 * m if m > 0.0 else 1e-3


def _default_delta(cfg: RunConfig, trace) -> float:
    if cfg.delta is not None:
        return cfg.delta
    if cfg.algorithm in _PENALTY_SCHEMES:
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
    write_report_json(report, os.path.join(outdir, "report.json"))
    write_history_jsonl(report.history, os.path.join(outdir, "history.jsonl"))
    return _write_contours(outdir, state, delta)


def _output_dir(cfg: RunConfig, suffix: str) -> str:
    if cfg.out:
        return cfg.out
    root = os.environ.get("SEGSOLVE_OUT", ".")
    return os.path.join(root, suffix)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        cfg = _merge_config(args)
        cfg.validate()
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = _output_dir(cfg, f"{cfg.algorithm}_{cfg.bc}_n{cfg.n}")
    try:
        state, report, trace = _run_single(cfg)
    except (ValueError, KeyError, OSError) as exc:  # OSError: unreadable custom trace
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LinearSolveError as exc:
        print(f"inner solver failed: {exc}", file=sys.stderr)
        return 2
    try:
        _write_artifacts(outdir, state, report, _default_delta(cfg, trace))
    except OSError as exc:
        print(f"error writing artifacts: {exc}", file=sys.stderr)
        return 1
    print(
        f"{cfg.algorithm} on {cfg.bc} (n={cfg.n}): "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"in {report.iters} iterations, energy {report.final_energy:.6g} -> {outdir}"
    )
    return 0 if report.converged else 2


def _bench_worker(payload: dict):
    """Run one bench cell; returns summary info and its ContourSet."""
    cfg = RunConfig(**payload)
    try:
        state, report, trace = _run_single(cfg)
    except Exception as exc:  # recorded in the summary, the suite continues
        return {
            "bc": cfg.bc,
            "algorithm": cfg.algorithm,
            "ok": False,
            "error": str(exc),
        }
    outdir = os.path.join(cfg.out, cfg.algorithm, cfg.bc)
    contours = _write_artifacts(outdir, state, report, _default_delta(cfg, trace))
    return {
        "bc": cfg.bc,
        "algorithm": cfg.algorithm,
        "ok": True,
        "converged": report.converged,
        "iterations": report.iters,
        "final_energy": report.final_energy,
        "final_violation": report.final_violation_max,
        "wall_time_seconds": report.wall_time_seconds,
        "contours": contours,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = _merge_config(args)
        algos = [a.strip() for a in (args.algos or "").split(",") if a.strip()]
        if not algos:
            raise ConfigError("at least one algorithm is required (--algos)")
        if len(set(algos)) < len(algos):
            raise ConfigError("an algorithm is listed more than once in --algos")
        outroot = _output_dir(cfg, f"bench_n{cfg.n}")
        cells = [
            replace(cfg, bc=bc, algorithm=algo, out=outroot) for bc in BENCH_BCS for algo in algos
        ]
        for cell in cells:
            cell.validate()
            # the solver values, too, are checked before any cell runs
            _solver_config(cell, build_grid(cell.n, cell.n, (-1.0, 1.0, -1.0, 1.0)))
    except (ValueError, OSError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(outroot, exist_ok=True)
    payloads = [asdict(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else nullcontext() as pool:
        runs = (pool.map if pool else map)(_bench_worker, payloads)
        results = {(res["bc"], res["algorithm"]): res for res in runs}

    summary_path = os.path.join(outroot, "summary.csv")
    any_failed = False
    with open(summary_path, "w", newline="") as fh:
        fh.write("bc,algorithm,iterations,final_energy,final_violation,converged,wall_time_seconds\n")
        for bc in BENCH_BCS:
            for algo in algos:
                res = results[(bc, algo)]
                if not res["ok"]:
                    any_failed = True
                    fh.write(f"{bc},{algo},,,,error,\n")
                    continue
                if not res["converged"]:
                    any_failed = True
                wall = 0.0 if cfg.deterministic else res["wall_time_seconds"]
                fh.write(
                    f"{bc},{algo},{res['iterations']},{res['final_energy']:.17g},"
                    f"{res['final_violation']:.17g},{res['converged']},{wall:.17g}\n"
                )

    grid = build_grid(cfg.n, cfg.n, (-1.0, 1.0, -1.0, 1.0))
    for algo in algos:
        entries = []
        for bc in BENCH_BCS:
            entries.append((bc, results[(bc, algo)].get("contours", ContourSet(delta=0.0))))
        with open(os.path.join(outroot, f"{algo}_sheet.svg"), "w") as fh:
            fh.write(render_tiled_svg(entries, grid))

    n_ok = sum(1 for r in results.values() if r["ok"] and r["converged"])
    print(f"bench: {n_ok}/{len(results)} runs converged -> {outroot}")
    return 2 if any_failed else 0


def cmd_project_selftest(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: count must be >= 1", file=sys.stderr)
        return 1
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
    try:
        if args.delta is not None and not args.delta > 0.0:
            raise ValueError("contour threshold delta must be positive")
        comps = [field_from_csv(os.path.join(args.fields_dir, f"u{k}.csv")) for k in (1, 2, 3)]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    state = SystemState(*comps)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
