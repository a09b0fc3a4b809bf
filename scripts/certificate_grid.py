#!/usr/bin/env python3
"""Search certificates on a fixed small grid, as one comparable JSON file.

Every objective runs on every valid parameter pair with n <= 8 on the
initial-complex engine with pruning, and with n <= 7 without pruning;
`--unrestricted` adds the exhaustive engine, pruned and unpruned, for
n <= 7.  Each record holds the certificate without `elapsed_ms`, so two
builds of the search agree exactly when their output files are
byte-identical (`cmp a.json b.json`), `nodes` included; an
`--unrestricted` grid is compared with `--diff` instead (below).  A run
stopped by `--time-limit` is recorded only as timed out, because how far
it got depends on the machine; a run refused by a resource cap is
recorded with the cap's message.  Every certificate is rechecked with
`search.recheck`; the file is written either way, and the script exits 1
if one fails.

    PYTHONPATH=src python3 scripts/certificate_grid.py --out grid.json

`--diff OLD NEW` compares two such files and is the identity gate for a
change that may move only node counts: it lists every record whose
certificate differs in a field other than `nodes`, or that only one file
holds, and exits 1 if there is any.  Records timed out in either file are
skipped, and named and counted on stderr.  It also prints each file's
total `nodes` and how many records moved theirs, so a change that moves
the search tree reports it from this one command.  Grids written with
`--unrestricted` are compared this way and never with `cmp`: two of their
runs end near the time limit, the pruned `max_union_size` (7,6) and the
unpruned `upper_layers` (7,6), so on a loaded host the same build times
out a different set of runs.

`--oracle FILE` checks one such file against its own unpruned runs: each
`restricted` or `unrestricted` record must equal its `*_unpruned` twin (same
objective and parameters) in every field but `nodes`.  A pruned run and its
unpruned twin share one compatibility graph, so that check cannot catch a
wrong graph; the engines are also checked against each other: a proven
`unrestricted` optimum must equal the `restricted` one for a shift-invariant
objective, whose restricted optimum is proven too, and be at least it for
the others, whose restricted optimum is a lower bound.  Records timed out or
capped on either side are skipped, and named and counted on stderr; it
exits 1 on any difference.

    PYTHONPATH=src python3 scripts/certificate_grid.py --unrestricted \
        --time-limit 15 --out ugrid.json
    PYTHONPATH=src python3 scripts/certificate_grid.py --oracle ugrid.json
"""

import argparse
import json
import sys
import time

from katona import CapExceeded, SearchOptions, maximize, search

# (label, restrict_to_initial_complexes, use_pruning, largest n)
ENGINES = (("restricted", True, True, 8), ("restricted_unpruned", True, False, 7))
UNRESTRICTED = (("unrestricted", False, True, 7),
                ("unrestricted_unpruned", False, False, 7))


def grid(engines, time_limit, failed):
    """Yield one record per valid (objective, parameters, engine); append
    the record of each certificate that `search.recheck` refuses to
    `failed`."""
    for label, restrict, pruning, max_n in engines:
        options = SearchOptions(time_limit=time_limit, use_pruning=pruning,
                                restrict_to_initial_complexes=restrict)
        for name, obj in search.OBJECTIVES.items():
            for n in range(1, max_n + 1):
                for p in range(1, n + 1):
                    params = dict(zip(obj.params, (n, p)))
                    record = {"engine": label, "objective": name, "params": params}
                    try:
                        cert = maximize(name, params, options)
                    except CapExceeded as exc:
                        record["capped"] = str(exc)
                    except ValueError:
                        continue            # not a valid parameter pair
                    else:
                        if not search.recheck(cert):
                            failed.append(record)
                        if cert.timed_out:
                            record["timed_out"] = True
                        else:
                            out = cert.to_json_dict()
                            del out["elapsed_ms"]
                            record["certificate"] = out
                    yield record


def _keyed(path):
    """The records of a grid file by (engine, objective, params)."""
    with open(path) as fh:
        return {(r["engine"], r["objective"], json.dumps(r["params"], sort_keys=True)): r
                for r in json.load(fh)}


def _without_nodes(record):
    if "certificate" not in record:
        return record
    cert = dict(record["certificate"])
    del cert["nodes"]
    return {**record, "certificate": cert}


def _nodes(record):
    return record.get("certificate", {}).get("nodes")


def diff(old_path, new_path) -> int:
    """Print the records that differ other than in `nodes`, each file's
    total `nodes` and the number of records whose `nodes` moved; 1 if any
    record differs."""
    old, new = _keyed(old_path), _keyed(new_path)
    keys = sorted(old.keys() | new.keys())
    differ = skipped = moved = 0
    for key in keys:
        a, b = old.get(key), new.get(key)
        if a is not None and b is not None:
            if "timed_out" in a or "timed_out" in b:
                skipped += 1
                print(f"skipped as timed out: {' '.join(key)}", file=sys.stderr)
                continue
            moved += _nodes(a) != _nodes(b)
            a, b = _without_nodes(a), _without_nodes(b)
            if a == b:
                continue
        differ += 1
        print(f"{' '.join(key)}: {a} -> {b}")
    print(f"{differ} of {len(keys)} records differ other than "
          f"in nodes ({skipped} skipped as timed out)", file=sys.stderr)
    totals = [sum(_nodes(r) or 0 for r in f.values()) for f in (old, new)]
    print(f"nodes {totals[0]} -> {totals[1]}, {moved} records moved",
          file=sys.stderr)
    return 1 if differ else 0


def oracle(path) -> int:
    """Print the pruned records that differ from their unpruned twins other
    than in `nodes`, and the proven `unrestricted` optima that disagree with
    the `restricted` ones; 1 if any do."""
    records = _keyed(path)
    compared = differ = skipped = 0
    for (engine, *rest), pruned in sorted(records.items()):
        twin = records.get((engine + "_unpruned", *rest))
        if twin is None:
            continue                    # an unpruned record, or n beyond the twins'
        if "certificate" not in pruned or "certificate" not in twin:
            skipped += 1
            print(f"skipped as timed out or capped: {engine} {' '.join(rest)}",
                  file=sys.stderr)
            continue
        compared += 1
        a = _without_nodes(pruned)["certificate"]
        b = _without_nodes(twin)["certificate"]
        if a != b:
            differ += 1
            print(f"{engine} {' '.join(rest)}: {a} != unpruned {b}")
    print(f"{differ} of {compared} pruned records differ from their unpruned "
          f"twins other than in nodes ({skipped} skipped as timed out or capped)",
          file=sys.stderr)
    crossed = wrong = 0
    for (engine, name, params), record in sorted(records.items()):
        restricted = records.get(("restricted", name, params))
        if (engine != "unrestricted" or restricted is None
                or "certificate" not in record or "certificate" not in restricted):
            continue
        crossed += 1
        a, b = (int(r["certificate"]["optimum"]) for r in (record, restricted))
        if a < b or a != b and search.OBJECTIVES[name].shift_invariant:
            wrong += 1
            print(f"unrestricted {name} {params}: optimum {a}, restricted {b}")
    print(f"{wrong} of {crossed} proven unrestricted optima disagree with the "
          f"restricted engine", file=sys.stderr)
    return 1 if differ or wrong else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="JSON file to write")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two grid files, ignoring nodes")
    mode.add_argument("--oracle", metavar="FILE",
                      help="compare each pruned record of a grid file with its "
                           "unpruned twin, ignoring nodes")
    ap.add_argument("--unrestricted", action="store_true",
                    help="add the exhaustive engine for n <= 7")
    ap.add_argument("--time-limit", type=float, default=120.0,
                    help="seconds per run (default 120)")
    args = ap.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    if args.oracle:
        sys.exit(oracle(args.oracle))
    engines = ENGINES + (UNRESTRICTED if args.unrestricted else ())
    t0 = time.process_time()
    failed = []
    records = list(grid(engines, args.time_limit, failed))
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    timed_out = sum("timed_out" in r for r in records)
    capped = sum("capped" in r for r in records)
    print(f"{len(records)} runs ({timed_out} timed out, {capped} capped) in "
          f"{time.process_time() - t0:.1f} s CPU -> {args.out}", file=sys.stderr)
    for record in failed:
        print(f"recheck failed: {record['engine']} {record['objective']} "
              f"{record['params']}", file=sys.stderr)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
