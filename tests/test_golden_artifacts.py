"""Golden artifacts: SHA-256 of every file a deterministic CLI run writes.

Six algorithms on ex41 and bc7 (`solve --n 21 --eps 1e-4 --deterministic`)
and one tiled PGD bench sweep (`bench --algos pgd --n 11`) run in-process;
every file they write must hash to the value in `golden_artifacts.json`,
and every run must end with the recorded exit code.  A refactor keeps the
hashes.  An intended change of artifact bytes replaces the entries, with the
reason in CHANGES.md: the failure message lists each differing path with
its new hash, and

    PYTHONPATH=src python3 tests/test_golden_artifacts.py PATTERN [PATTERN ...]

reruns the CLI and rewrites the exit codes and hashes of the runs and paths
that match a shell-style PATTERN (`fnmatch`; say `'*/report.json'` or
`'solve/penalty-*'`).  It writes nothing, and exits 1, if any other entry
differs.
"""

import fnmatch
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from segsolve.cli import ALGORITHMS, main

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
SOLVE_BCS = ("ex41", "bc7")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(root: Path) -> tuple[dict, dict]:
    """Run the CLI into `root`: (exit codes by run, SHA-256 by written file path relative to root)."""
    codes = {}
    for bc in SOLVE_BCS:
        for algo in ALGORITHMS:
            run = f"solve/{algo}_{bc}"
            codes[run] = main([
                "solve", "--algo", algo, "--bc", bc, "--n", "21", "--eps", "1e-4",
                "--deterministic", "--out", str(root / run),
            ])
    codes["bench/pgd"] = main([
        "bench", "--algos", "pgd", "--n", "11", "--deterministic", "--jobs", "1",
        "--out", str(root / "bench"),
    ])
    hashes = {
        p.relative_to(root).as_posix(): _sha256(p)
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    return codes, hashes


def _differing(new: dict, old: dict) -> list[str]:
    """Sorted keys whose values differ, or that only one of the two holds."""
    return [key for key in sorted(set(new) | set(old)) if new.get(key) != old.get(key)]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_exit_codes(produced, golden):
    codes, _ = produced
    assert codes == golden["exit_codes"]


def test_every_artifact_hash(produced, golden):
    _, hashes = produced
    expected = golden["sha256"]
    assert len(expected) == 149  # 7 files for each of 12 solves and 9 bench cells, summary.csv, sheet
    differing = {path: hashes.get(path, "<not written>") for path in _differing(hashes, expected)}
    assert not differing, "artifacts differ from golden_artifacts.json:\n" + "\n".join(
        f"  {path}: {new}" for path, new in differing.items()
    )


def _unmatched(keys: list[str], patterns: list[str]) -> list[str]:
    """The keys that match none of the shell-style patterns."""
    return [key for key in keys if not any(fnmatch.fnmatchcase(key, pat) for pat in patterns)]


def test_patterns_select_runs_and_paths(golden):
    keys = list(golden["exit_codes"]) + list(golden["sha256"])
    reports = set(keys) - set(_unmatched(keys, ["*/report.json"]))
    assert len(reports) == 21  # 12 solve runs and 9 bench cells
    assert all(key.endswith("/report.json") for key in reports)
    picard = set(keys) - set(_unmatched(keys, ["solve/penalty-picard_*"]))
    assert picard == {"solve/penalty-picard_ex41", "solve/penalty-picard_bc7"} | {
        f"solve/penalty-picard_{bc}/{name}" for bc in SOLVE_BCS for name in (
            "u1.csv", "u2.csv", "u3.csv", "report.json", "history.jsonl", "contours.svg", "contours.csv"
        )
    }


def replace_entries(patterns: list[str]) -> int:
    """Rewrite the golden entries matching `patterns`; refuse if any other entry differs."""
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        codes, hashes = produce(Path(tmp))
    differing = _differing(codes, golden["exit_codes"]) + _differing(hashes, golden["sha256"])
    outside = _unmatched(differing, patterns)
    if outside:
        print("not written; entries matching no pattern differ:", *outside, sep="\n  ")
        return 1
    GOLDEN.write_text(json.dumps({"exit_codes": codes, "sha256": hashes}, indent=1) + "\n")
    print(f"replaced {len(differing)} entries (runs and paths):", *differing, sep="\n  ")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(replace_entries(sys.argv[1:]))
