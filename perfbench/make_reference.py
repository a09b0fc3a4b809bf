"""Rewrite reference.json from the current katona sources.

    python3 perfbench/make_reference.py

Stores, for every solved rung of the ladder and exhaustive workloads, the
certificate fields the benchmark gates on (objective, params, optimum,
proven_optimal, maximizers, witness) and, for every frontier rung, the
value of the seed families the incumbent must not fall below.  Rerun it
only when a change is meant to alter a certificate, and say why.
"""

from __future__ import annotations

import json

import run
import workloads as wl


def main() -> None:
    mods = run.load_katona()
    search, core = mods["search"], mods["core"]
    solved = {}
    for objective, params in wl.LADDER + wl.EXHAUSTIVE:
        cert = search.maximize(objective, params, search.SearchOptions(workers=1))
        if not (cert.proven_optimal and search.recheck(cert)):
            raise SystemExit(f"{objective} {params}: no proven, rechecked certificate")
        solved[wl.rung_name(objective, params)] = {
            "objective": objective, "params": params, "optimum": cert.optimum,
            "proven_optimal": cert.proven_optimal, "maximizers": cert.maximizers,
            "witness": core.family_to_json_dict(cert.witness, form="hex"),
        }
    floors = {wl.rung_name(o, p): wl.frontier_floor(mods, o, p) for o, p in wl.FRONTIER}
    with open(wl.REFERENCE, "w") as fh:
        json.dump({"solved": solved, "frontier_floor": floors}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
