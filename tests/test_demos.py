"""Each demo script runs to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, child_env):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
