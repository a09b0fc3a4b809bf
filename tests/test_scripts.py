"""The research scripts run with their defaults and exit 0.

`overflow_sweep.py` also checks, for every n <= 12 and d <= 3, that the
proven `overflow_even` optimum equals the best near-base rung's closed form
(`near_base_overflow`), and marks any row where it does not.
`certificate_grid.py --diff` totals `nodes` over the records that both
files finished."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    return run


@pytest.mark.parametrize("script", ["crossover_scan.py", "diametral_chart.py"])
def test_script_runs(script):
    assert _run(script).stdout


def test_overflow_sweep_matches_the_best_near_base_rung():
    out = _run("overflow_sweep.py").stdout
    rows = out.splitlines()[1:]
    # d = 1..3, n = 2d + 2..12
    assert len(rows) == 9 + 7 + 5, out
    assert "differs from max_s" not in out, out


def test_grid_diff_totals_only_records_both_files_finished(tmp_path):
    # one equal record, one whose nodes moved, and one that timed out in
    # OLD only: it is skipped, and its NEW nodes stay out of the totals
    def record(n, nodes=None):
        r = {"engine": "restricted", "objective": "overflow_even",
             "params": {"n": n, "d": 1}}
        if nodes is None:
            r["timed_out"] = True
        else:
            r["certificate"] = {"nodes": nodes, "optimum": "1"}
        return r
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps([record(4, 10), record(5, 20), record(6)]))
    new.write_text(json.dumps([record(4, 10), record(5, 25), record(6, 1000)]))
    err = _run("certificate_grid.py", "--diff", str(old), str(new)).stderr
    assert "nodes 30 -> 35, 1 records moved" in err, err
    assert "(1 skipped as timed out)" in err, err
