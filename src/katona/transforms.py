"""Compression operators: i<-j shifts, down-shifts, left-translates.

The public operators are pure: each takes a SetFamily and returns a new one.
Inside, a family is a set of masks, changed in place: `_OPS`, the one table
of op kinds, gives each its arguments and a step that validates them and
applies the op, so an op sequence is canonicalised once.

One pass reaches each fixpoint.  Write S_ij-stable for "the shift S_ij
moves no member", and D_i-stable likewise.  Let G = S_ij(F), i < j: each
member of G is a member of F that did not move or an image, which has i.

(a) G is S_ij-stable.
(b) For a < i, G is S_ab-stable if F is S_ab- and S_aj-stable.  Take B in G
    with b and not a; C = B - b + a must be in G.  If B is the image of A:
    for b = i, C = A - j + a is in F (S_aj) and has no j, so it stays; else
    A - b + a is in F (S_ab) and moves to C or is blocked by C in F, which
    has no j.  If B did not move, C is in F (S_ab) and moves only if it has
    j and not i, so b != j: for b = i, its image B - j + a is in F (S_aj);
    else B - j + i is in F, as B did not move, and so is C's image (S_ab).
(c) G keeps S_ib-stability for every b: a member without i is no image, so
    it did not move, and the set it needs has i, so that set does not move.

By induction over the lexicographic (i, j) order, one pass of the i<-j
shifts ends S_ab-stable for all a < b: S_ij keeps the shifts (a, b) with
a < i, by (b), as (a, j) came before, and (i, b), by (c).  Likewise D_j
keeps D_i-stability for every i: a member B with i that did not move needs
B - i, which is in F and, if it has j, is blocked by B - i - j, in F as
B - j is; an image A - j needs A - i - j, the image of A - i or, if that is
blocked, already in F without j.  So one pass D_1..D_n gives a complex.

No down-shift moves a member exactly when the family is a complex
(`core._down_closed`), and no i<-j shift exactly when it is closed under
the elementary moves j -> j-1 (`_closed`): by induction on j - i, a swap
j -> i walks the hole at the largest absent k >= i up to j, then recurses
on k -> i.  So the shift pass, its ops grouped by i, can end at the first
group boundary where every family is initial, with the same log.
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


def _shift_pass(sets: list[set[int]], n: int) -> ShiftLog:
    """Apply the i<-j shifts on [n] once, in lexicographic (i, j) order, to
    every set, and log each that moved a member of some set.  The pass
    reaches the fixpoint, so `passes` counts it and, if it moved a member,
    the pass that would move nothing.  It ends early once every set is
    `_closed`, checked before the pass and after each i-group that moved a
    member (checking after each moving op made small shifts 5 % slower)."""
    log = []
    if not all(map(_closed, sets)):
        for i in range(1, n):
            before, bi = len(log), 1 << (i - 1)
            for j in range(i + 1, n + 1):
                # a list, not a generator, so that every set is shifted
                if any([_shift(present, bi, 1 << (j - 1)) for present in sets]):
                    log.append(("shift", i, j))
            if len(log) > before and all(map(_closed, sets)):
                break
    return ShiftLog(tuple(log), 1 + bool(log))


def make_initial(fam: SetFamily) -> tuple[SetFamily, ShiftLog]:
    """Apply the i<-j shifts once, in lexicographic (i, j) order; that one
    pass makes the family initial (see the module docstring)."""
    present = set(fam.members)
    log = _shift_pass([present], fam.n)
    return SetFamily.from_masks(fam.n, present), log


def make_initial_pair(fam_a: SetFamily, fam_b: SetFamily) -> tuple[SetFamily, SetFamily]:
    """Shift two families simultaneously, in one pass that makes both initial.

    Applying the same shift to both sides is what preserves the cross
    intersecting property; shifting one side alone can destroy it.
    """
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground-set mismatch: {fam_a.n} vs {fam_b.n}")
    sets = [set(fam_a.members), set(fam_b.members)]
    _shift_pass(sets, fam_a.n)
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
    """Down-shift once by 1..n unless the family is already a complex; that
    pass gives a complex (see the module docstring)."""
    present = set(fam.members)
    ops = () if _down_closed(present) else tuple(
        ("downshift", i) for i in range(1, fam.n + 1) if _shift(present, 0, 1 << (i - 1)))
    return SetFamily.from_masks(fam.n, present), ShiftLog(ops, 1 + bool(ops))


def make_complex_by_downshift(fam: SetFamily) -> SetFamily:
    """Down-shift by 1..n once, which makes the family a complex; the size
    is preserved and the diameter never grows."""
    return _downshift_fixpoint(fam)[0]


def replay(fam: SetFamily, log: ShiftLog) -> SetFamily:
    """Re-apply a recorded op sequence to a family."""
    return _apply(fam, log.ops)
