import json
import math

import pytest

from segsolve.grid import build_grid
from segsolve.penalty import PenaltyConfig, run_penalty
from segsolve.projected_gradient import FistaConfig, PgdConfig, fista_run, pgd_run
from segsolve.reporting import SolveReport, write_history_jsonl, write_report_json

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def _report(history, **meta):
    return SolveReport("fista", "bc7", 0.25, len(history), False, 1.5, 0.0, 0.0,
                       history=history, meta=meta)


def _solved(name):
    g = build_grid(9, 9, SQUARE)
    if name == "pgd":
        return pgd_run(g, "bc7", PgdConfig(max_iters=5))[1]
    if name == "fista":
        return fista_run(g, "bc7", FistaConfig(max_iters=5))[1]
    return run_penalty(g, "bc4", PenaltyConfig(1e-3, max_outer=3))[2]


RESTARTS = [
    {"iter": 1, "energy": 2.5, "step_norm": None, "violation_max": 0.0, "alpha": 1e-5,
     "restarted": True},
    {"iter": 2, "energy": 2.25, "step_norm": 3e-4, "violation_max": 0.0, "alpha": 4e-5,
     "restarted": False},
]
NONFINITE = [{"iter": 1, "energy": math.nan, "step_norm": math.inf, "violation_max": -math.inf}]


@pytest.fixture(params=["pgd", "fista", "penalty", "restarts", "nonfinite", "empty"])
def report(request):
    """Reports of each history kind the writers meet, by what its rows hold."""
    rows = {"restarts": RESTARTS, "nonfinite": NONFINITE, "empty": []}
    if request.param in rows:
        return _report(rows[request.param], restarts=1, config={"n": 9, "tol": 1e-8})
    return _solved(request.param)


def test_penalty_rows_hold_a_scheme_and_cg_counts():
    rows = _solved("penalty").history
    assert rows and all(isinstance(r["scheme"], str) for r in rows)
    assert all(isinstance(r["cg_iters"], list) for r in rows)


def test_history_lines_are_the_bytes_of_json_dumps_per_row(report, tmp_path):
    path = tmp_path / "history.jsonl"
    lines = write_history_jsonl(report.history, path)
    assert lines == [json.dumps(row) for row in report.history]
    assert path.read_bytes() == "".join(json.dumps(row) + "\n" for row in report.history).encode()


def test_report_is_the_bytes_of_json_dumps_with_and_without_history_lines(report, tmp_path):
    expected = (json.dumps(report.to_dict()) + "\n").encode()
    write_report_json(report, tmp_path / "alone.json")
    lines = write_history_jsonl(report.history, tmp_path / "history.jsonl")
    write_report_json(report, tmp_path / "spliced.json", lines)
    assert (tmp_path / "alone.json").read_bytes() == expected
    assert (tmp_path / "spliced.json").read_bytes() == expected


def test_empty_history_writes_no_bytes_and_an_empty_list(tmp_path):
    report = _report([])
    write_report_json(report, tmp_path / "report.json",
                      write_history_jsonl(report.history, tmp_path / "history.jsonl"))
    assert (tmp_path / "history.jsonl").read_bytes() == b""
    text = (tmp_path / "report.json").read_text()
    assert text.endswith(', "history": []}\n') and json.loads(text)["history"] == []
