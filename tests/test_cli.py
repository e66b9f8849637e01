import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segsolve import cli, linear_solver
from segsolve.cli import main
from segsolve.grid import ScalarField, build_grid, field_from_csv, field_to_csv

SOLVE_ARTIFACTS = [
    "u1.csv", "u2.csv", "u3.csv",
    "report.json", "history.jsonl", "contours.svg", "contours.csv",
]


def run_cli(*argv):
    return main(list(argv))


class TestSolve:
    def test_fista_solve_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "solve", "--algo", "fista", "--bc", "bc4", "--n", "21",
            "--out", str(out),
        )
        assert code == 0
        for name in SOLVE_ARTIFACTS:
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "fista"
        assert report["bc_id"] == "bc4"
        assert report["converged"] is True
        assert report["h"] == pytest.approx(0.1)
        assert len(report["history"]) == report["iters"]

    def test_penalty_solve(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "solve", "--algo", "penalty-picard", "--bc", "ex41", "--n", "17",
            "--eps", "1e-4", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "penalty-picard"
        assert [s["epsilon"] for s in report["stages"]] == [1e-2, 1e-3, 1e-4]
        rows = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        assert rows[0]["scheme"] == "picard"
        assert {"stage_epsilon", "iter", "energy", "penalty_energy",
                "step_norm", "cg_iters"} <= set(rows[0])

    def test_zero_iteration_cap_exits_1_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("solve", "--algo", "pgd", "--n", "9", "--max-iters", "0", "--out", str(out))
        assert code == 1
        assert "max_iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_grid_too_small_exits_1_without_artifacts(self, tmp_path, capsys, n):
        # n = 0 read "n must be >= 1", a weaker bound than the grid's
        out = tmp_path / "run"
        assert run_cli("solve", "--algo", "pgd", "--n", str(n), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: grid needs nx, ny >= 3, got ({n}, {n})\n"
        assert not out.exists()

    def test_jobs_is_a_bench_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--algo", "pgd", "--jobs", "2", "--out", str(tmp_path / "run"))
        assert exc.value.code == 2

    def test_unknown_bc_exits_1_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "nope"
        code = run_cli("solve", "--algo", "pgd", "--bc", "nosuch", "--out", str(out))
        assert code == 1
        assert not out.exists()
        assert "nosuch" in capsys.readouterr().err

    def test_unknown_algorithm_exits_1(self, tmp_path):
        code = run_cli("solve", "--algo", "sor", "--bc", "bc1", "--out", str(tmp_path / "x"))
        assert code == 1

    def test_nonconvergence_exits_2_with_artifacts(self, tmp_path):
        out = tmp_path / "partial"
        code = run_cli(
            "solve", "--algo", "pgd", "--bc", "bc1", "--n", "31",
            "--max-iters", "5", "--out", str(out),
        )
        assert code == 2
        assert (out / "report.json").exists()
        assert json.loads((out / "report.json").read_text())["converged"] is False

    def test_fields_csv_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "15", "--out", str(out))
        f = field_from_csv(out / "u1.csv")
        assert f.grid.nx == 15 and f.grid.ny == 15
        assert np.all(np.isfinite(f.values))

    @pytest.mark.parametrize("delta", ["-1", "0"])
    def test_nonpositive_delta_exits_1_before_solving(self, tmp_path, capsys, delta):
        out = tmp_path / "run"
        code = run_cli(
            "solve", "--algo", "fista", "--bc", "bc4", "--n", "11",
            "--delta", delta, "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_output_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "u1.csv").write_text("")
        code = run_cli("solve", "--algo", "pgd", "--n", "5", "--out", str(tmp_path / "u1.csv" / "sub"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_inner_solver_failure_exits_2_without_artifacts(self, tmp_path, capsys, monkeypatch):
        # no residual passes a NaN tolerance, so the first CG solve raises
        monkeypatch.setattr(linear_solver, "REL_TOL", float("nan"))
        out = tmp_path / "run"
        code = run_cli("solve", "--algo", "pgd", "--bc", "ex41", "--n", "9", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("inner solver failed:")
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["pgd", "penalty-gs"])
    def test_damping_outside_the_unit_interval_exits_1(self, tmp_path, capsys, algo):
        # refused by every algorithm, also by those that do not read it
        out = tmp_path / "run"
        code = run_cli("solve", "--algo", algo, "--n", "9", "--damping", "2", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: damping must lie in (0, 1]")
        assert not out.exists()

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("solve", "--algo", "fista", "--seed", "1", "--out", str(tmp_path / "x"))

    def test_output_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGSOLVE_OUT", str(tmp_path))
        code = run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "11")
        assert code == 0
        assert (tmp_path / "fista_bc4_n11" / "report.json").exists()


class TestConfigFile:
    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "fista", "bc": "bc4", "n": 11}))
        out = tmp_path / "run"
        # --n on the command line overrides the file value
        code = run_cli("solve", "--config", str(cfg_path), "--n", "13", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n"] == 13
        assert report["config"]["algorithm"] == "fista"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithmz": "fista"}))
        assert run_cli("solve", "--config", str(cfg_path)) == 1

    @pytest.mark.parametrize(
        "table",
        [None, "", "side,coord,phi1,phi2,phi3\nbottom,0.5\n"],
        ids=["missing", "empty", "short-row"],
    )
    def test_malformed_custom_trace_exits_1(self, tmp_path, capsys, table):
        trace = tmp_path / "trace.csv"
        if table is not None:
            trace.write_text(table)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"algorithm": "pgd", "bc": "custom", "n": 9, "custom_bc_csv": str(trace)}
        ))
        out = tmp_path / "run"
        assert run_cli("solve", "--config", str(cfg_path), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_corner_in_custom_trace_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "side,coord,phi1,phi2,phi3\n"
            "bottom,-1,-1,-1,2\nbottom,1,0,0,1\n"
            "top,-1,0,1,0\ntop,1,0,1,0\n"
            "left,-1,1,0,0\nleft,1,0,1,0\n"
            "right,-1,0,0,1\nright,1,0,1,0\n"
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"algorithm": "pgd", "bc": "custom", "n": 5, "custom_bc_csv": str(trace)}
        ))
        out = tmp_path / "run"
        assert run_cli("solve", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "table",
        [
            # segregated, but phi1*phi2 overflows to inf and inf*0 is nan, not above the tolerance
            "bottom,-1,1e308,0,0\nbottom,1,0,1e308,0\n",
            # the product overflows at the middle node, where segregation fails anyway
            "bottom,-1,1,0,0\nbottom,0,1e200,1e200,1e-300\nbottom,1,0,1,0\n",
        ],
        ids=["segregated", "product-overflows"],
    )
    def test_oversized_custom_trace_exits_1_without_warning(self, tmp_path, capsys, table):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "side,coord,phi1,phi2,phi3\n" + table
            + "top,-1,0,0,1\ntop,1,0,0,1\nleft,-1,1,0,0\nleft,1,0,0,1\n"
            "right,-1,0,1,0\nright,1,0,0,1\n"
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"algorithm": "pgd", "bc": "custom", "n": 5, "custom_bc_csv": str(trace)}
        ))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("solve", "--config", str(cfg_path), "--out", str(out)) == 1
        assert caught == []
        assert capsys.readouterr().err == "error: boundary data must be at most 1e+100\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["solve"], ["bench", "--algos", "pgd"]], ids=["solve", "bench"]
    )
    def test_config_file_not_utf8_exits_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"algorithm": "pgd", "bc": "bc4\xff", "n": 9}')
        out = tmp_path / "run"
        assert run_cli(*command, "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_round_trip_reproduces_artifacts(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        code = run_cli(
            "solve", "--algo", "fista", "--bc", "bc4", "--n", "15",
            "--deterministic", "--out", str(out1),
        )
        assert code == 0
        # re-run from the echoed config in report.json
        code = run_cli(
            "solve", "--config", str(out1 / "report.json"),
            "--deterministic", "--out", str(out2),
        )
        assert code == 0
        for name in SOLVE_ARTIFACTS:
            # byte identity holds even though the output directories differ:
            # run-local fields are excluded from the config echo
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    def test_old_report_with_seed_loads(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["solve", "--algo", "pgd", "--bc", "bc4", "--n", "11", "--deterministic"]
        assert run_cli(*args, "--out", str(out1)) == 0
        # reports written before the seed was dropped echo it in their config
        old = json.loads((out1 / "report.json").read_text())
        assert "seed" not in old["config"]
        old["config"]["seed"] = 7
        old_path = tmp_path / "old_report.json"
        old_path.write_text(json.dumps(old))
        assert run_cli("solve", "--config", str(old_path), "--deterministic", "--out", str(out2)) == 0
        for name in SOLVE_ARTIFACTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    def test_deterministic_from_a_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "pgd", "bc": "bc4", "n": 9, "deterministic": True}))
        out = tmp_path / "run"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["wall_time_seconds"] == 0.0
        assert report["config"]["deterministic"] is True

    @pytest.mark.parametrize("values", [
        {"n": 11.7}, {"n": "11"}, {"max_iters": 2.5}, {"deterministic": 1},
    ])
    def test_config_file_value_of_wrong_type_exits_1(self, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "pgd", "bc": "bc4", "n": 9, **values}))
        out = tmp_path / "run"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {next(iter(values))!r}")
        assert not out.exists()

    def test_config_integer_beyond_the_float_range_exits_1(self, tmp_path, capsys):
        # "eps": 1 followed by 400 zeros raised OverflowError from math.isfinite
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "penalty-picard", "bc": "bc4", "n": 9,
                                   "eps": 10**400}))
        out = tmp_path / "run"
        assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: eps must be finite, got a number beyond the float range\n")
        assert not out.exists()

    def test_jobs_key_refused_by_solve(self, tmp_path, capsys):
        # solve runs one cell: a jobs key from a file is refused like the --jobs flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        out = tmp_path / "run"
        args = ["--algo", "pgd", "--bc", "bc4", "--n", "9", "--out", str(out)]
        assert run_cli("solve", "--config", str(cfg), *args) == 1
        assert capsys.readouterr().err.startswith("error: config key 'jobs'")
        assert not out.exists()
        # the config echo of a report leaves jobs out, so a report still loads
        assert run_cli("solve", *args) == 0
        report = out / "report.json"
        assert "jobs" not in json.loads(report.read_text())["config"]
        assert run_cli("solve", "--config", str(report), "--out", str(tmp_path / "again")) == 0


class TestConfigEcho:
    def test_penalty_run_echoes_no_alpha(self, tmp_path):
        out, plain, again = tmp_path / "a", tmp_path / "plain", tmp_path / "again"
        args = ["solve", "--algo", "penalty-picard", "--bc", "bc4", "--n", "9", "--eps", "1e-3"]
        assert run_cli(*args, "--alpha", "0.3", "--out", str(out)) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert "alpha" not in config and config["damping"] == 0.5
        assert run_cli(*args, "--out", str(plain)) == 0
        assert run_cli("solve", "--config", str(out / "report.json"), "--out", str(again)) == 0
        for name in ("u1.csv", "u2.csv", "u3.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes() == (
                plain / name).read_bytes(), name

    @pytest.mark.parametrize("algo", ["penalty-gs", "penalty-semi"])
    def test_undamped_schemes_echo_no_damping(self, tmp_path, algo):
        out, plain, again = tmp_path / "a", tmp_path / "plain", tmp_path / "again"
        args = ["solve", "--algo", algo, "--bc", "bc4", "--n", "9", "--eps", "1e-3"]
        assert run_cli(*args, "--damping", "0.3", "--out", str(out)) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert not {"alpha", "damping"} & set(config) and config["algorithm"] == algo
        assert run_cli(*args, "--out", str(plain)) == 0
        assert run_cli("solve", "--config", str(out / "report.json"), "--out", str(again)) == 0
        for name in ("u1.csv", "u2.csv", "u3.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes() == (
                plain / name).read_bytes(), name

    @pytest.mark.parametrize("algo", ["pgd", "fista"])
    def test_gradient_run_echoes_no_penalty_values(self, tmp_path, algo):
        out = tmp_path / "run"
        assert run_cli(
            "solve", "--algo", algo, "--bc", "bc4", "--n", "9", "--eps", "1e-3",
            "--eps-start", "0.1", "--eps-factor", "0.5", "--damping", "0.1", "--out", str(out),
        ) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert not {"eps", "eps_start", "eps_factor", "damping"} & set(config)
        assert config["alpha"] is None and config["algorithm"] == algo

    @pytest.mark.parametrize("algo", cli.ALGORITHMS)
    def test_echo_holds_what_the_solver_reads(self, algo):
        # each solver field of RunConfig with a valid value other than its default:
        # it is echoed if and only if it changes the solver's config
        other = dict(eps=1e-3, eps_start=0.5, eps_factor=0.5, alpha=1e-3, damping=0.3,
                     tol=1e-6, max_iters=7)
        assert set(other) == cli._SOLVER_FIELDS
        cfg = cli.RunConfig(algorithm=algo, bc="bc4", n=5)
        echo = cli._run_single(cfg)[1].meta["config"]
        grid = cli._grid(cfg.n)
        built = cli._solver_config(cfg, grid)
        for name, value in other.items():
            changed = cli._solver_config(replace(cfg, **{name: value}), grid) != built
            assert (name in echo) == changed, name


class TestHistoryBookkeeping:
    """The report's counts agree with the history rows they summarise."""

    @pytest.mark.parametrize("algo", cli.ALGORITHMS)
    def test_counts_match_the_rows(self, algo):
        report = cli._run_single(cli.RunConfig(algorithm=algo, bc="bc7", n=13))[1]
        rows = report.history
        assert report.iters == len(rows) > 0
        if algo == "fista":
            assert report.meta["restarts"] == sum(row["restarted"] for row in rows)
        for stage in report.meta.get("stages", []):
            cg = [row["cg_iters"] for row in rows if row["stage_epsilon"] == stage["epsilon"]]
            assert len(cg) == stage["iterations"]
            assert stage["cg_iterations"] == sum(map(sum, cg))
            assert stage["cg_max"] == max(map(max, cg))


class TestReportWriters:
    @pytest.mark.parametrize("algo", ["pgd", "fista", "penalty-picard"])
    def test_report_and_history_hold_the_report(self, tmp_path, algo):
        cfg = cli.RunConfig(algorithm=algo, bc="bc4", n=9, eps=1e-3, deterministic=True)
        state, report, trace = cli._run_single(cfg)
        out = tmp_path / "run"
        cli._write_artifacts(str(out), state, report, cli._default_delta(cfg, trace))
        written = json.loads((out / "report.json").read_text())
        assert written == report.to_dict()
        lines = (out / "history.jsonl").read_text().split("\n")
        assert lines[-1] == "" and len(lines) == len(report.history) + 1
        assert [json.loads(line) for line in lines[:-1]] == written["history"]
        # the report is a config file that reproduces the run
        again = tmp_path / "again"
        assert run_cli("solve", "--config", str(out / "report.json"), "--out", str(again)) == 0
        for name in SOLVE_ARTIFACTS:
            assert (again / name).read_bytes() == (out / name).read_bytes(), name


class TestBench:
    def test_bench_fista_small(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            "bench", "--algos", "fista", "--n", "15", "--max-iters", "4000",
            "--out", str(out), "--deterministic",
        )
        assert code in (0, 2)
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "bc,algorithm,iterations,final_energy,final_violation,converged,wall_time_seconds"
        assert len(summary) == 10
        bcs = [line.split(",")[0] for line in summary[1:]]
        assert bcs == [f"bc{k}" for k in range(1, 10)]
        assert (out / "fista_sheet.svg").exists()
        assert (out / "fista" / "bc5" / "report.json").exists()

    def test_bench_two_algorithms_row_order(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            "bench", "--algos", "pgd,fista", "--n", "9", "--max-iters", "2000",
            "--out", str(out),
        )
        assert code in (0, 2)
        rows = [l.split(",")[:2] for l in (out / "summary.csv").read_text().splitlines()[1:]]
        assert len(rows) == 18
        # bc-major, algorithm-minor ordering
        assert rows[0] == ["bc1", "pgd"] and rows[1] == ["bc1", "fista"]
        assert rows[2][0] == "bc2"
        assert (out / "pgd_sheet.svg").exists() and (out / "fista_sheet.svg").exists()

    def test_bench_parallel_matches_sequential(self, tmp_path):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        args = ["bench", "--algos", "fista", "--n", "11", "--max-iters", "2000",
                "--deterministic"]
        assert run_cli(*args, "--out", str(seq)) in (0, 2)
        assert run_cli(*args, "--out", str(par), "--jobs", "3") in (0, 2)
        assert (seq / "summary.csv").read_text() == (par / "summary.csv").read_text()
        assert (seq / "fista_sheet.svg").read_bytes() == (par / "fista_sheet.svg").read_bytes()

    def test_pool_gets_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # a pool forks all its workers at once; this one records its size and maps in process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        args = ["bench", "--algos", "pgd", "--n", "5", "--max-iters", "10", "--deterministic"]
        assert run_cli(*args, "--jobs", "64", "--out", str(tmp_path / "many")) in (0, 2)
        assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "two")) in (0, 2)
        assert sizes == [9, 2]
        assert (tmp_path / "many" / "summary.csv").read_text() == (
            tmp_path / "two" / "summary.csv"
        ).read_text()

    def test_output_under_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "u1.csv").write_text("")
        code = run_cli("bench", "--algos", "pgd", "--n", "5", "--out", str(tmp_path / "u1.csv" / "sub"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("delta", ["-1", "0"])
    def test_nonpositive_delta_exits_1_before_solving(self, tmp_path, capsys, delta):
        out = tmp_path / "bench"
        code = run_cli("bench", "--algos", "pgd", "--n", "9", "--delta", delta, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_failed_cell_says_why_on_stderr(self, tmp_path, capsys, monkeypatch):
        # no residual passes a NaN tolerance, so the first CG solve of every cell raises
        monkeypatch.setattr(linear_solver, "REL_TOL", float("nan"))
        out = tmp_path / "bench"
        code = run_cli(
            "bench", "--algos", "penalty-picard", "--n", "7", "--eps", "1e-2", "--out", str(out)
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 9
        for k, line in enumerate(err, start=1):
            assert line.startswith(f"bench: bc{k} penalty-picard failed: CG did not reach"), line
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert rows == [f"bc{k},penalty-picard,,,,error," for k in range(1, 10)]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_grid_too_small_exits_1_without_artifacts(self, tmp_path, capsys, n):
        # n = 0 read "nx must be >= 1": the grid was built before any cell was checked
        out = tmp_path / "bench"
        assert run_cli("bench", "--algos", "pgd", "--n", str(n), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: grid needs nx, ny >= 3, got ({n}, {n})\n"
        assert not out.exists()

    def test_empty_algorithm_list_exits_1(self, tmp_path):
        assert run_cli("bench", "--algos", "", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("algos, bad", [
        ("penalty-picard", ["--eps", "0"]),
        ("pgd,penalty-gs", ["--eps-factor", "1.5"]),
        ("penalty-phasefield", ["--max-iters", "0"]),
        ("pgd", ["--alpha", "1"]),
        ("fista", ["--alpha", "-1"]),
        ("pgd", ["--max-iters", "0"]),
        ("fista", ["--max-iters", "0"]),
        ("pgd", ["--tol", "0"]),
        ("fista", ["--tol", "-1"]),
        ("penalty-picard", ["--tol", "0"]),
        ("pgd", ["--jobs", "0"]),
        ("pgd,pgd", []),
        ("fista", ["--alpha", "inf"]),
        ("penalty-picard", ["--eps-start", "inf"]),
        ("pgd", ["--tol", "inf"]),
        ("pgd", ["--eps", "nan"]),
    ])
    def test_invalid_solver_value_exits_1_before_solving(self, tmp_path, capsys, algos, bad):
        # the solver configs are built for every cell before the output directory
        out = tmp_path / "bench"
        code = run_cli("bench", "--algos", algos, "--n", "9", *bad, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestSelftestAndContours:
    def test_selftest_passes(self, capsys):
        assert run_cli("project-selftest", "--count", "2000", "--seed", "3") == 0
        assert "OK" in capsys.readouterr().out

    def test_selftest_zero_count_exits_1(self):
        assert run_cli("project-selftest", "--count", "0") == 1

    def test_selftest_negative_seed_exits_1(self, capsys):
        assert run_cli("project-selftest", "--count", "10", "--seed", "-1") == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_contours_recompute(self, tmp_path):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "15", "--out", str(out))
        (out / "contours.svg").unlink()
        out2 = tmp_path / "re"
        code = run_cli("contours", str(out), "--delta", "0.05", "--out", str(out2))
        assert code == 0
        assert (out2 / "contours.svg").exists()
        assert (out2 / "contours.csv").exists()

    def test_contours_nonpositive_delta_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "9", "--out", str(out))
        capsys.readouterr()
        for delta in ("0", "inf", "nan"):
            assert run_cli("contours", str(out), "--delta", delta, "--out", str(tmp_path / "re")) == 1
            assert capsys.readouterr().err.startswith("error: contour threshold delta"), delta
            assert not (tmp_path / "re").exists()

    def test_contours_missing_fields_exits_1(self, tmp_path):
        assert run_cli("contours", str(tmp_path)) == 1

    @pytest.mark.parametrize("text", ["", "x,y,value\n"], ids=["empty", "header-only"])
    def test_contours_malformed_field_exits_1(self, tmp_path, capsys, text):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "9", "--out", str(out))
        (out / "u2.csv").write_text(text)
        assert run_cli("contours", str(out), "--out", str(tmp_path / "re")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_contours_field_off_its_grid_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "9", "--out", str(out))
        capsys.readouterr()
        # two inner nodes of the first row swapped: the grid's bounds stay as they were
        header, x0, x1, x2, *rest = (out / "u2.csv").read_text().splitlines()
        (out / "u2.csv").write_text("\n".join([header, x0, x2, x1, *rest]) + "\n")
        assert run_cli("contours", str(out), "--out", str(tmp_path / "re")) == 1
        assert "not the row-major nodes" in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    def test_contours_fields_of_two_grids_exit_1(self, tmp_path, capsys):
        for k, n in ((1, 5), (2, 7), (3, 7)):
            grid = build_grid(n, n, (-1.0, 1.0, -1.0, 1.0))
            field_to_csv(ScalarField(grid, np.zeros(grid.shape)), tmp_path / f"u{k}.csv")
        assert run_cli("contours", str(tmp_path), "--out", str(tmp_path / "re")) == 1
        assert capsys.readouterr().err.startswith("error: components must share a grid")
        assert not (tmp_path / "re").exists()

    def test_contours_output_under_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("solve", "--algo", "fista", "--bc", "bc4", "--n", "9", "--out", str(out))
        capsys.readouterr()
        assert run_cli("contours", str(out), "--out", str(out / "u1.csv" / "sub")) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("segsolve") is None,
        reason="the segsolve console script is not on PATH; it exists only after "
        "the package is installed (pip install -e .)",
    )
    def test_console_script(self, tmp_path):
        res = subprocess.run(
            ["segsolve", "solve", "--algo", "fista", "--bc", "bc4", "--n", "11",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "report.json").exists()

    def test_module_entry_point(self, tmp_path, child_env):
        res = subprocess.run(
            [sys.executable, "-m", "segsolve", "solve", "--algo", "fista", "--bc", "bc4",
             "--n", "11", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=child_env,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "report.json").exists()
