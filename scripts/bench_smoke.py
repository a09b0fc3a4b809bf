#!/usr/bin/env python3
"""Short perfbench runs over many seeds: every run must exit 0 and fail no call.

A benchmark run stops with exit 1 when set-up (import, inputs, warm-up)
raises, and the inputs depend on `--seed`, so a result that is wrong for
one seed only shows on that seed.  This runs

    python3 perfbench/run.py --workload W --seed s --seconds 2

for `algebra` with seeds 1..20 and for `ladder`, `frontier` and
`exhaustive` with seeds 1..3, one at a time, prints each run whose exit
code is not 0 or whose fail_ratio is not 0.0, and exits 1 if there is one.

    python3 scripts/bench_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SEEDS = {"algebra": range(1, 21), "ladder": range(1, 4), "frontier": range(1, 4),
         "exhaustive": range(1, 4)}


def fail_ratio(stdout: str) -> float | None:
    """failed / attempted from the run's last line, or None if it has none."""
    try:
        result = json.loads(stdout.splitlines()[-1])
        return result["failed"] / result["attempted"]
    except (IndexError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def main() -> int:
    bad = 0
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload,
                   "--seed", str(seed), "--seconds", "2"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            ratio = fail_ratio(proc.stdout)
            if proc.returncode != 0 or ratio != 0.0:
                bad += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"fail_ratio {ratio}")
                print("\n".join(proc.stderr.strip().splitlines()[-3:]))
    runs = sum(len(s) for s in SEEDS.values())
    print(f"{runs - bad} of {runs} runs exited 0 with fail_ratio 0.0")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
