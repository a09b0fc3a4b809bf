"""Compression operators: i<-j shifts, down-shifts, left-translates.

The public operators are pure: each takes a SetFamily and returns a new one.
Inside, a family is a set of masks: the kernels `_shift` and `_down` apply
one operator to it in place, and `_sweep`, the one fixpoint driver, repeats
kernels in a fixed order, so that logs are reproducible, until nothing
moves.  `_OPS` is the one table of operator kinds and their arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import SetFamily, elements_of


def _shift(present: set[int], bi: int, bj: int) -> bool:
    """Replace bj by bi in each member whose image is absent; True if one moved.

    Movers are found in the unchanged set; an image has bi, so it is no mover.
    """
    movers = [m for m in present
              if m & bj and not m & bi and (m ^ bj) | bi not in present]
    present.difference_update(movers)
    present.update((m ^ bj) | bi for m in movers)
    return bool(movers)


def _down(present: set[int], bi: int) -> bool:
    """Remove bi from each member whose reduction is absent; True if one moved."""
    movers = [m for m in present if m & bi and m ^ bi not in present]
    present.difference_update(movers)
    present.update(m ^ bi for m in movers)
    return bool(movers)


def shift_ij(fam: SetFamily, i: int, j: int) -> SetFamily:
    """Replace j by i in each member when the result is absent from the family."""
    if not (1 <= i < j <= fam.n):
        raise ValueError(f"need 1 <= i < j <= {fam.n}, got i={i}, j={j}")
    present = set(fam.members)
    _shift(present, 1 << (i - 1), 1 << (j - 1))
    res = SetFamily.from_masks(fam.n, present)
    assert len(res) == len(fam)  # the shift is injective on members
    return res


def down_shift(fam: SetFamily, i: int) -> SetFamily:
    """Remove element i from each member whose reduction is absent."""
    if not 1 <= i <= fam.n:
        raise ValueError(f"element {i} outside ground set [1, {fam.n}]")
    present = set(fam.members)
    _down(present, 1 << (i - 1))
    res = SetFamily.from_masks(fam.n, present)
    assert len(res) == len(fam)
    return res


def left_translate(fam: SetFamily, p: int) -> SetFamily:
    """Decrease every element by p; the result lives on [n - p]."""
    if not 0 <= p <= fam.n:
        raise ValueError(f"translate amount must be in [0, {fam.n}], got {p}")
    low = (1 << p) - 1
    for m in fam.members:
        if m & low:
            raise ValueError(
                f"member {elements_of(m)} has an element <= {p}; cannot translate")
    return SetFamily.from_masks(fam.n - p, (m >> p for m in fam.members))


# op kind -> (the operator, the names of its arguments after the family)
_OPS = {"shift": (shift_ij, ("i", "j")), "downshift": (down_shift, ("i",)),
        "translate": (left_translate, ("p",))}


@dataclass(frozen=True)
class ShiftLog:
    """Replayable record of applied operators.

    ops entries: ("shift", i, j) | ("downshift", i) | ("translate", p).
    Only operators that changed the family are recorded, so replaying the
    log on the original input reproduces the output exactly.
    """

    ops: tuple[tuple, ...] = field(default_factory=tuple)
    passes: int = 0

    def to_json_dict(self) -> dict:
        return {"ops": [{"kind": kind, **dict(zip(_OPS[kind][1], args))}
                        for kind, *args in self.ops],
                "passes": self.passes}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ShiftLog":
        """Read a log; a malformed one raises ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("ops"), list):
            raise ValueError("a shift log needs an 'ops' list")
        if type(obj.get("passes", 0)) is not int:
            raise ValueError(f"passes must be an integer, got {obj['passes']!r}")
        ops = []
        for entry in obj["ops"]:
            kind = entry.get("kind") if isinstance(entry, dict) else None
            if not isinstance(kind, str) or kind not in _OPS:
                raise ValueError(f"not an op with a known kind: {entry!r}")
            args = tuple(entry.get(name) for name in _OPS[kind][1])
            if any(type(v) is not int for v in args):
                raise ValueError(f"op {entry!r} needs integers {_OPS[kind][1]}")
            ops.append((kind, *args))
        return cls(tuple(ops), obj.get("passes", 0))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _sweep(sets: list[set[int]], ops: list[tuple]) -> ShiftLog:
    """Apply `ops`, each a (log entry, kernel, kernel bits), in order to every
    set, sweep after sweep, until a sweep changes none of them.  The log
    records each op that moved a member of some set, and counts the sweeps."""
    log = []
    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        for entry, kernel, bits in ops:
            # a list, not a generator, so that every set is shifted
            if any([kernel(present, *bits) for present in sets]):
                log.append(entry)
                changed = True
    return ShiftLog(tuple(log), passes)


def _shifts(n: int) -> list[tuple]:
    """The i<-j shifts on [n] in lexicographic (i, j) order, as sweep ops."""
    return [(("shift", i, j), _shift, (1 << (i - 1), 1 << (j - 1)))
            for i in range(1, n) for j in range(i + 1, n + 1)]


def make_initial(fam: SetFamily) -> tuple[SetFamily, ShiftLog]:
    """Apply i<-j shifts in lexicographic (i, j) sweeps until nothing moves."""
    present = set(fam.members)
    log = _sweep([present], _shifts(fam.n))
    return SetFamily.from_masks(fam.n, present), log


def make_initial_pair(fam_a: SetFamily, fam_b: SetFamily) -> tuple[SetFamily, SetFamily]:
    """Shift two families simultaneously until both are initial.

    Applying the same shift to both sides is what preserves the cross
    intersecting property; shifting one side alone can destroy it.
    """
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground-set mismatch: {fam_a.n} vs {fam_b.n}")
    sets = [set(fam_a.members), set(fam_b.members)]
    _sweep(sets, _shifts(fam_a.n))
    return tuple(SetFamily.from_masks(fam_a.n, present) for present in sets)


def precedes(mask_a: int, mask_b: int) -> bool:
    """Coordinatewise order on equal-size sets: sorted elements pointwise <=."""
    a = elements_of(mask_a)
    b = elements_of(mask_b)
    if len(a) != len(b):
        raise ValueError(f"precedes needs equal sizes, got {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def is_initial(fam: SetFamily) -> bool:
    """Fixpoint of every i<-j shift.

    Equivalent to each uniform layer being a down-set of the coordinatewise
    order; checked via closure under single j -> i swaps, which generate it.
    """
    present = set(fam.members)
    for m in fam.members:
        rest = m
        while rest:
            bj = rest & (-rest)
            rest ^= bj
            j = bj.bit_length()
            for i in range(1, j):
                bi = 1 << (i - 1)
                if not m & bi and ((m ^ bj) | bi) not in present:
                    return False
    return True


def _downshift_fixpoint(fam: SetFamily) -> tuple[SetFamily, ShiftLog]:
    present = set(fam.members)
    log = _sweep([present], [(("downshift", i), _down, (1 << (i - 1),))
                             for i in range(1, fam.n + 1)])
    return SetFamily.from_masks(fam.n, present), log


def make_complex_by_downshift(fam: SetFamily) -> SetFamily:
    """Down-shift sweeps in index order until the family is a complex.

    Size is preserved and the diameter never grows.
    """
    res, _ = _downshift_fixpoint(fam)
    return res


def replay(fam: SetFamily, log: ShiftLog) -> SetFamily:
    """Re-apply a recorded op sequence to a family."""
    for kind, *args in log.ops:
        if kind not in _OPS or len(args) != len(_OPS[kind][1]):
            raise ValueError(f"unknown op {(kind, *args)!r}")
        fam = _OPS[kind][0](fam, *args)
    return fam
