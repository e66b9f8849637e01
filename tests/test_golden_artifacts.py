"""Golden artifacts: SHA-256 of every file a deterministic CLI run writes.

Six algorithms on ex41 and bc7 (`solve --n 21 --eps 1e-4 --deterministic`)
and one tiled PGD bench sweep (`bench --algos pgd --n 11`) run in-process;
every file they write must hash to the value in `golden_artifacts.json`,
and every run must end with the recorded exit code.  A refactor keeps the
hashes.  An intended numeric change replaces the entries, with the reason
in CHANGES.md: the failure message lists each differing path with its new
hash.
"""

import hashlib
import json
from pathlib import Path

import pytest

from segsolve.cli import ALGORITHMS, main

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
SOLVE_BCS = ("ex41", "bc7")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """(exit codes by run, SHA-256 by written file path relative to the root)."""
    root = tmp_path_factory.mktemp("golden")
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
    differing = {
        path: hashes.get(path, "<not written>")
        for path in sorted(set(expected) | set(hashes))
        if hashes.get(path) != expected.get(path)
    }
    assert not differing, "artifacts differ from golden_artifacts.json:\n" + "\n".join(
        f"  {path}: {new}" for path, new in differing.items()
    )
