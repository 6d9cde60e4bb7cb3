"""Every demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_0*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    # the demos' own exact checks, each printed on one line
    checked = {"demo_01_operator_algebra": "closed form = brute force on all 128 points",
               "demo_02_series_solutions": "series == two-term recurrence oracle"}
    if path.stem in checked:
        line = next(line for line in result.stdout.splitlines() if line.startswith(checked[path.stem]))
        assert line.endswith("True"), line
