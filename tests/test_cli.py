import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from segsolve.cli import main
from segsolve.grid import field_from_csv

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

    @pytest.mark.parametrize("delta", ["-1", "0"])
    def test_nonpositive_delta_exits_1_before_solving(self, tmp_path, capsys, delta):
        out = tmp_path / "bench"
        code = run_cli("bench", "--algos", "pgd", "--n", "9", "--delta", delta, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
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
        assert run_cli("contours", str(out), "--delta", "0", "--out", str(tmp_path / "re")) == 1
        assert capsys.readouterr().err.startswith("error:")
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
