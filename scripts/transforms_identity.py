#!/usr/bin/env python3
"""One sha256 over what `katona.transforms` returns on 2 603 fixed families.

A change to the compression operators that must not change any output or
log is checked by running this before and after it: the digests must be
equal.  The families are

- the perfbench `algebra` union families `_union_input(Random(seed), i)`
  for seeds 0..199 and i = 0..11 (n = 8..14, u = 3..6; 2 400 families),
- 186 seeded random families with n <= 8 and up to 16 members, and
- `katona(16, 8)` and `katona_x(16, 7, x)` for x = 1..16.

For each family F the digest covers the members, `ops` and `passes` of
`make_initial(F)` and `_downshift_fixpoint(F)`, `replay` of both logs,
`is_initial` of F and of its initial form, `make_initial_pair` of F and its
complement family, and `left_translate` by the largest valid amount and by
one more (its result or its error message).

    PYTHONPATH=src python3 scripts/transforms_identity.py
"""

import hashlib
import importlib.util
import random
from pathlib import Path

from katona import (
    SetFamily, complement_family, is_initial, katona, katona_x, left_translate,
    make_initial, make_initial_pair, replay,
)
from katona.transforms import _downshift_fixpoint

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _union_input():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._union_input


def families():
    union_input = _union_input()
    for seed in range(200):
        rng = random.Random(seed)
        for i in range(12):
            inp = union_input(rng, i)
            yield SetFamily.from_masks(inp["n"], inp["masks"])
    rng = random.Random(2603)
    for _ in range(186):
        n = rng.randrange(1, 9)
        yield SetFamily.from_masks(
            n, [rng.randrange(1 << n) for _ in range(rng.randrange(17))])
    yield katona(16, 8)
    for x in range(1, 17):
        yield katona_x(16, 7, x)


def translated(fam: SetFamily, p: int):
    """The left-translate by p, or the message of the error it raises."""
    try:
        return left_translate(fam, p).members
    except ValueError as exc:
        return str(exc)


def record(fam: SetFamily) -> tuple:
    out, log = make_initial(fam)
    down, down_log = _downshift_fixpoint(fam)
    pair = make_initial_pair(fam, complement_family(fam))
    low = min(((m & -m).bit_length() - 1 for m in fam.members if m), default=fam.n)
    return (fam.n, fam.members, out.members, log.ops, log.passes,
            replay(fam, log).members, down.members, down_log.ops, down_log.passes,
            replay(fam, down_log).members, is_initial(fam), is_initial(out),
            pair[0].members, pair[1].members,
            translated(fam, low), translated(fam, low + 1))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for fam in families():
        digest.update(repr(record(fam)).encode())
        count += 1
    print(f"{count} families: sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
