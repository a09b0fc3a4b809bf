"""The research scripts run with their defaults and exit 0.

`overflow_sweep.py` also checks, for every n <= 12 and d <= 3, that the
proven `overflow_even` optimum equals the best near-base rung's closed form
(`near_base_overflow`), and marks any row where it does not."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


@pytest.mark.parametrize("script", ["crossover_scan.py", "diametral_chart.py"])
def test_script_runs(script):
    assert _run(script)


def test_overflow_sweep_matches_the_best_near_base_rung():
    out = _run("overflow_sweep.py")
    rows = out.splitlines()[1:]
    # d = 1..3, n = 2d + 2..12
    assert len(rows) == 9 + 7 + 5, out
    assert "differs from max_s" not in out, out
