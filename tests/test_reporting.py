import json
import math
from collections.abc import Sequence

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


PGD_KEYS = ["iter", "energy", "step_norm", "violation_max", "pg_residual"]
FISTA_KEYS = ["iter", "energy", "step_norm", "violation_max", "alpha", "restarted"]


@pytest.fixture(scope="module")
def pg_histories():
    g = build_grid(17, 17, SQUARE)
    h2 = g.hx**2
    pgd = pgd_run(g, "bc7", PgdConfig(max_iters=40))[1].history
    # the alpha floor at an unstable step: every row restarts (as in TestFistaRun) ...
    restarts = fista_run(g, "bc8", FistaConfig(alpha0=0.9 * h2, alpha_min=0.9 * h2, max_iters=5))
    # ... and at the floor of the reference loops' restarts configuration, some rows do
    g = build_grid(31, 31, SQUARE)
    floor = 0.2 * g.hx**2
    mixed = fista_run(g, "bc7", FistaConfig(alpha0=floor, alpha_min=floor, max_iters=200))
    return {"pgd": pgd, "restarts": restarts[1].history, "mixed": mixed[1].history}


def test_pg_rows_are_the_dicts_of_the_loop_literals(pg_histories):
    for row in pg_histories["pgd"]:
        assert list(row) == PGD_KEYS
        assert type(row["iter"]) is int
        assert all(type(row[key]) is float for key in PGD_KEYS[1:])
    assert [row["iter"] for row in pg_histories["pgd"]] == list(range(1, 41))
    kinds = set()
    for name in ("restarts", "mixed"):
        for k, row in enumerate(pg_histories[name]):
            assert list(row) == FISTA_KEYS
            assert type(row["iter"]) is int and row["iter"] == k + 1
            assert all(type(row[key]) is float for key in ("energy", "violation_max", "alpha"))
            assert type(row["restarted"]) is bool
            if row["restarted"]:
                assert row["step_norm"] is None
            else:
                assert type(row["step_norm"]) is float
            kinds.add(row["restarted"])
    assert kinds == {True, False}
    assert all(row["restarted"] for row in pg_histories["restarts"])


@pytest.mark.parametrize("name", ["pgd", "restarts", "mixed"])
def test_pg_history_indexes_and_slices_like_a_list(pg_histories, name):
    history = pg_histories[name]
    rows = list(history)
    assert len(history) == len(rows) > 0
    for k in range(-len(rows), len(rows)):
        assert history[k] == rows[k]
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            history[k]
    for s in (slice(None), slice(2, 7), slice(-3, None), slice(None, None, -2), slice(5, 1, -1),
              slice(100, 200), slice(-1000, 3)):
        assert history[s] == rows[s]
    report = _report(history)
    assert type(report.to_dict()["history"]) is list and report.to_dict()["history"] == rows


class _Unread(Sequence):
    """A history that fails when its rows are read."""

    def __len__(self):
        raise AssertionError("the rows were read")

    def __getitem__(self, index):
        raise AssertionError("the rows were read")

    def __iter__(self):
        raise AssertionError("the rows were read")


def test_report_writer_with_lines_never_reads_the_rows(pg_histories, tmp_path):
    report = _report(pg_histories["mixed"], restarts=3)
    lines = write_history_jsonl(report.history, tmp_path / "history.jsonl")
    write_report_json(report, tmp_path / "expected.json", lines)
    report.history = _Unread()
    write_report_json(report, tmp_path / "report.json", lines)
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
