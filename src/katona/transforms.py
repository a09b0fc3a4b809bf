"""Compression operators: i<-j shifts, down-shifts, left-translates.

The public operators are pure: each takes a SetFamily and returns a new one.
Inside, a family is a set of masks, changed in place: `_OPS`, the one table
of op kinds, gives each its arguments and a step that validates them and
applies the op, so an op sequence is canonicalised once; `_sweep`, the one
fixpoint driver, repeats `_shift` ops in a fixed order until a test shows that
no op can move a member.  No down-shift moves a member of a family exactly
when it is a complex (`core._down_closed`), and no i<-j shift exactly when
it is closed under the elementary moves j -> j-1: by induction on j - i, a
swap j -> i walks the hole at the largest absent k >= i up to j, then
recurses on k -> i.  So a shift sweep, its ops grouped by i, also ends at
the first group boundary where every family is initial: no later op could
move a member, the log is the same, and `passes` counts the sweep that
would move nothing as before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import SetFamily, _down_closed, elements_of, mask_key


def _shift(present: set[int], bi: int, bj: int) -> bool:
    """Replace bj by bi (0 for a down-shift) in each member whose image is
    absent; True if one moved.  Movers are found in the unchanged set; an
    image has bi, or lacks bj if bi is 0, so it is no mover."""
    movers = [m for m in present
              if m & bj and not m & bi and (m ^ bj) | bi not in present]
    present.difference_update(movers)
    present.update((m ^ bj) | bi for m in movers)
    return bool(movers)


def _shift_step(n: int, present: set[int], i: int, j: int) -> int:
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got i={i}, j={j}")
    _shift(present, 1 << (i - 1), 1 << (j - 1))
    return n


def _down_step(n: int, present: set[int], i: int) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"element {i} outside ground set [1, {n}]")
    _shift(present, 0, 1 << (i - 1))
    return n


def _translate_step(n: int, present: set[int], p: int) -> int:
    if not 0 <= p <= n:
        raise ValueError(f"translate amount must be in [0, {n}], got {p}")
    low = [m for m in present if m & ((1 << p) - 1)]
    if low:  # name the first such member in canonical order
        first = elements_of(min(low, key=mask_key))
        raise ValueError(f"member {first} has an element <= {p}; cannot translate")
    moved = [m >> p for m in present]
    present.clear()
    present.update(moved)
    return n - p


# op kind -> (its step (n, present, *args) -> the new n, its argument names)
_OPS = {"shift": (_shift_step, ("i", "j")), "downshift": (_down_step, ("i",)),
        "translate": (_translate_step, ("p",))}


def _apply(fam: SetFamily, ops: list[tuple] | tuple[tuple, ...]) -> SetFamily:
    """Run the steps of `ops` on one mask set; canonicalise once at the end."""
    n, present = fam.n, set(fam.members)
    for kind, *args in ops:
        if kind not in _OPS or len(args) != len(_OPS[kind][1]):
            raise ValueError(f"unknown op {(kind, *args)!r}")
        n = _OPS[kind][0](n, present, *args)
    res = SetFamily.from_masks(n, present)
    assert len(res) == len(fam)  # every op is injective on members
    return res


def shift_ij(fam: SetFamily, i: int, j: int) -> SetFamily:
    """Replace j by i in each member when the result is absent from the family."""
    return _apply(fam, [("shift", i, j)])


def down_shift(fam: SetFamily, i: int) -> SetFamily:
    """Remove element i from each member whose reduction is absent."""
    return _apply(fam, [("downshift", i)])


def left_translate(fam: SetFamily, p: int) -> SetFamily:
    """Decrease every element by p; the result lives on [n - p]."""
    return _apply(fam, [("translate", p)])


@dataclass(frozen=True)
class ShiftLog:
    """Replayable record of applied operators: ("shift", i, j) |
    ("downshift", i) | ("translate", p) ops, only those that changed the
    family, so replaying the log on the input reproduces the output exactly."""

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


def _closed(present: set[int]) -> bool:
    """True when every elementary move j -> j-1 of a member (j >= 2 in m and
    j-1 not in m: the bits of m & ~(m << 1) & ~1) gives a member."""
    for m in present:
        moves = m & ~(m << 1) & ~1
        while moves:
            bj = moves & -moves
            moves ^= bj
            if m ^ bj ^ bj >> 1 not in present:
                return False
    return True


def _sweep(sets: list[set[int]], groups: list[list[tuple]], settled) -> ShiftLog:
    """Apply the ops of `groups`, each a (log entry, bi, bj) for `_shift`, in
    order to every set, sweep after sweep, until a sweep changes none of
    them.  The log records each op that moved a member of some set, and
    `passes` counts the sweeps: one more than those that moved a member.
    `settled` holds for a set exactly when no op can move a member of it,
    so the sweep ends once it holds for every set; it is checked before the
    first sweep and after each group that moved a member, and the sweep
    that would move nothing is counted but not run.  For the i<-j shifts,
    grouped by i, it is `_closed`, for the down-shifts `_down_closed` (see
    the module docstring).  Checking after every moving op instead made
    shifts of small random families about 5 % slower."""
    if all(map(settled, sets)):
        return ShiftLog((), 1)
    log = []
    passes = 1
    while True:
        start = len(log)
        for group in groups:
            before = len(log)
            for entry, bi, bj in group:
                # a list, not a generator, so that every set is shifted
                if any([_shift(present, bi, bj) for present in sets]):
                    log.append(entry)
            if len(log) > before and all(map(settled, sets)):
                return ShiftLog(tuple(log), passes + 1)
        if len(log) == start:
            return ShiftLog(tuple(log), passes)
        passes += 1


def _shifts(n: int) -> list[list[tuple]]:
    """The i<-j shifts on [n] in lexicographic (i, j) order, as sweep ops
    grouped by i."""
    return [[(("shift", i, j), 1 << (i - 1), 1 << (j - 1))
             for j in range(i + 1, n + 1)] for i in range(1, n)]


def make_initial(fam: SetFamily) -> tuple[SetFamily, ShiftLog]:
    """Apply i<-j shifts in lexicographic (i, j) sweeps until nothing moves."""
    present = set(fam.members)
    log = _sweep([present], _shifts(fam.n), _closed)
    return SetFamily.from_masks(fam.n, present), log


def make_initial_pair(fam_a: SetFamily, fam_b: SetFamily) -> tuple[SetFamily, SetFamily]:
    """Shift two families simultaneously until both are initial.

    Applying the same shift to both sides is what preserves the cross
    intersecting property; shifting one side alone can destroy it.
    """
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground-set mismatch: {fam_a.n} vs {fam_b.n}")
    sets = [set(fam_a.members), set(fam_b.members)]
    _sweep(sets, _shifts(fam_a.n), _closed)
    return tuple(SetFamily.from_masks(fam_a.n, present) for present in sets)


def precedes(mask_a: int, mask_b: int) -> bool:
    """Coordinatewise order on equal-size sets: sorted elements pointwise <=."""
    a, b = elements_of(mask_a), elements_of(mask_b)
    if len(a) != len(b):
        raise ValueError(f"precedes needs equal sizes, got {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def is_initial(fam: SetFamily) -> bool:
    """Fixpoint of every i<-j shift: each uniform layer is a down-set of the
    coordinatewise order.  Checked by `_closed`, as the elementary moves
    j -> j-1 generate every j -> i swap (see the module docstring)."""
    return _closed(set(fam.members))


def _downshift_fixpoint(fam: SetFamily) -> tuple[SetFamily, ShiftLog]:
    present = set(fam.members)
    log = _sweep([present], [[(("downshift", i), 0, 1 << (i - 1))
                              for i in range(1, fam.n + 1)]], _down_closed)
    return SetFamily.from_masks(fam.n, present), log


def make_complex_by_downshift(fam: SetFamily) -> SetFamily:
    """Down-shift sweeps in index order until the family is a complex; the
    size is preserved and the diameter never grows."""
    return _downshift_fixpoint(fam)[0]


def replay(fam: SetFamily, log: ShiftLog) -> SetFamily:
    """Re-apply a recorded op sequence to a family."""
    return _apply(fam, log.ops)
