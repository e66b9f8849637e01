"""Smoke test: demos that use the public library API run to completion.

Demo 01 calls `apply_laplacian` and `dirichlet_energy`; demo 04 unpacks the
`(state, history, report)` return of `run_penalty` and calls
`product_violation`.  Each runs in a child process and must exit with 0.
A demo writes figures next to itself, so it runs from a copy in a temporary
directory.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["01_grid_and_harmonic_extension.py", "04_penalty_continuation.py"]
)
def test_demo_runs(script, tmp_path, child_env):
    copy = shutil.copy(DEMOS / script, tmp_path)
    res = subprocess.run(
        [sys.executable, copy], capture_output=True, text=True, env=child_env, cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
