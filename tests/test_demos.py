"""Each demo script runs to completion and prints exactly its recorded output.

The recorded stdout lives in tests/data/demos/<demo>.txt; a change that
alters any printed byte (an estimate, a score, an envelope size) fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, child_env):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
