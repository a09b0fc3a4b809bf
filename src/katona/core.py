"""Bitmask subsets and canonical set families over a ground set [n].

A subset of [n] = {1, ..., n} is a plain int bitmask: element e is present
iff bit (e - 1) is set.  Elements are 1-based everywhere on the API surface
and in JSON; bit positions are the only 0-based thing here.

A SetFamily is an immutable, deduplicated, canonically ordered tuple of
masks.  Two families over the same ground set are equal iff their encodings
are identical, which makes families usable as dict keys and makes all
outputs byte-stable.  Canonicalising runs no Python code per member:
`from_masks` deduplicates with `dict.fromkeys`, range-checks with one `min`
and one `max`, and orders by `mask_key` with two stable C sorts, by value
and then by size.  `family_from_sets` range-checks all elements with one
`min` and one `max`, and the JSON reader checks types with
`set(map(type, ...))`.  Each looks for the first bad item only on failure,
so the error names the one an item-by-item check would.
`elements_of` decodes a mask a byte at a time from a constant table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, Iterator

ALGEBRAIC_CAP = 63  # single machine word for masks
SEARCH_CAP = 24     # enforced by search entry points, not here
MEMBER_CAP = 1 << 16   # members of a constructed family, checked before enumerating


class CapExceeded(ValueError):
    """Ground set or enumeration size beyond a hard resource cap."""


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def mask_key(mask: int) -> tuple[int, int]:
    """The canonical order on subsets: by size, then by mask value (colex)."""
    return mask.bit_count(), mask


# _BYTE_ELEMENTS[b]: the sorted 1-based elements of the byte value b
_BYTE_ELEMENTS = tuple(tuple(e + 1 for e in range(8) if b >> e & 1) for b in range(256))
# _BIT[e]: the mask of the 1-based element e (_BIT[0] is never read)
_BIT = tuple(1 << e >> 1 for e in range(ALGEBRAIC_CAP + 1))


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask, decoded a byte at a time."""
    if mask < 0:                        # -1 >> 8 == -1: the loop would not end
        raise ValueError(f"a mask is nonnegative, got {mask}")
    out = _BYTE_ELEMENTS[mask & 255]
    base = 0
    while mask := mask >> 8:
        base += 8
        if mask & 255:
            out += tuple([base + e for e in _BYTE_ELEMENTS[mask & 255]])
    return out


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_ground(n: int) -> None:
    if n < 0:
        raise ValueError(f"ground set size must be nonnegative, got {n}")
    if n > ALGEBRAIC_CAP:
        raise CapExceeded(f"ground set size {n} exceeds the cap of {ALGEBRAIC_CAP}")


@dataclass(frozen=True, slots=True)
class SetFamily:
    """Canonical family of subsets of [n].

    members are masks sorted by (cardinality, mask value); for equal
    cardinality, mask-value order is exactly colexicographic order on sets.
    """

    n: int
    members: tuple[int, ...]

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        _check_ground(n)
        seen = dict.fromkeys(masks)     # keeps input order for the message
        if seen and (min(seen) < 0 or max(seen) >> n):
            bad = next(m for m in seen if m < 0 or m >> n)
            raise ValueError(f"mask {bad:#x} has elements outside [1, {n}]")
        return cls(n, tuple(sorted(sorted(seen), key=int.bit_count)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def member_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(elements_of, self.members))


def family_from_sets(n: int, sets: Iterable[Iterable[int]]) -> SetFamily:
    """Build a canonical family from element lists; duplicates collapse."""
    _check_ground(n)
    sets = list(map(tuple, sets))
    elements = list(chain.from_iterable(sets))
    if elements and (min(elements) < 1 or max(elements) > n):
        bad = next(e for e in elements if not 1 <= e <= n)
        raise ValueError(f"element {bad} outside ground set [1, {n}]")
    masks = []
    for s in sets:
        m = 0
        for e in s:
            m |= _BIT[e]
        masks.append(m)
    return SetFamily.from_masks(n, masks)


# ---------------------------------------------------------------------------
# predicates

def _pairs_meet(fam: SetFamily, meet: Callable[[int, int], int]) -> bool:
    """Every two members A, B (a member with itself too) share at least
    meet(|A|, |B|) elements.  Members are grouped by size, whatever their
    order; a pair of sizes whose threshold is not positive is skipped."""
    by_size: dict[int, list[int]] = {}
    for m in fam.members:
        by_size.setdefault(m.bit_count(), []).append(m)
    if any(meet(s, s) > s for s in by_size):
        return False
    for s, group in by_size.items():
        for t, other in by_size.items():
            if t < s or (bar := meet(s, t)) <= 0:
                continue
            for i, a in enumerate(group):
                for b in group[i + 1:] if t == s else other:
                    if (a & b).bit_count() < bar:
                        return False
    return True


def is_t_intersecting(fam: SetFamily, t: int) -> bool:
    """Every two members (and every member with itself) share >= t elements.

    The self-pair makes a single member M qualify iff |M| >= t; this is the
    convention under which layer intersection facts hold verbatim for
    one-member layers.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    return _pairs_meet(fam, lambda s, r: t)


def is_u_union(fam: SetFamily, u: int) -> bool:
    """Every two members (a member with itself too) have union <= u; as
    |A | B| = |A| + |B| - |A & B|, only sizes summing above u are compared."""
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    return _pairs_meet(fam, lambda s, t: s + t - u)


def is_diameter_at_most(fam: SetFamily, u: int) -> bool:
    """diameter(fam) <= u, without the maximum: |A ^ B| = |A| + |B| - 2 |A & B|,
    so only members whose sizes sum above u are compared."""
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    return _pairs_meet(fam, lambda s, t: -((u - s - t) // 2))


def is_cross_t_intersecting(fam_a: SetFamily, fam_b: SetFamily, t: int) -> bool:
    """Every pair with one member from each family meets in >= t elements."""
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground-set mismatch: {fam_a.n} vs {fam_b.n}")
    for a in fam_a.members:
        for b in fam_b.members:
            if (a & b).bit_count() < t:
                return False
    return True


def _down_closed(present: set[int]) -> bool:
    """Removing an element from a member gives a member: no down-shift moves one."""
    for m in present:
        rem = m
        while rem:
            bit = rem & (-rem)
            if (m ^ bit) not in present:
                return False
            rem ^= bit
    return True


def is_complex(fam: SetFamily) -> bool:
    """Closed under taking subsets (removing one element at a time suffices)."""
    return _down_closed(set(fam.members))


# ---------------------------------------------------------------------------
# set-level operators

def complement_family(fam: SetFamily) -> SetFamily:
    full = (1 << fam.n) - 1
    return SetFamily.from_masks(fam.n, (full ^ m for m in fam.members))


def layer(fam: SetFamily, ell: int) -> SetFamily:
    """Members of size exactly ell."""
    if not 0 <= ell <= fam.n:
        raise ValueError(f"layer {ell} outside [0, {fam.n}]")
    return SetFamily(fam.n, tuple(m for m in fam.members if m.bit_count() == ell))


def at_least(fam: SetFamily, ell: int) -> SetFamily:
    """Members of size >= ell."""
    if not 0 <= ell <= fam.n:
        raise ValueError(f"layer {ell} outside [0, {fam.n}]")
    return SetFamily(fam.n, tuple(m for m in fam.members if m.bit_count() >= ell))


def down_closure(fam: SetFamily) -> SetFamily:
    """Smallest complex containing the family."""
    out = set()
    for m in fam.members:
        for sub in subsets_of(m):
            out.add(sub)
    return SetFamily.from_masks(fam.n, out)


def shadow(fam: SetFamily, ell: int) -> SetFamily:
    """All ell-subsets contained in some member of a k-uniform family, ell < k."""
    sizes = {m.bit_count() for m in fam.members}
    if len(sizes) > 1:
        raise ValueError(f"shadow requires a uniform family, got sizes {sorted(sizes)}")
    if not fam.members:
        return SetFamily(fam.n, ())
    k = sizes.pop()
    if not 0 <= ell < k:
        raise ValueError(f"shadow level {ell} must satisfy 0 <= ell < {k}")
    out = set()
    for m in fam.members:
        for small in combinations(elements_of(m), ell):
            out.add(mask_of(small))
    return SetFamily.from_masks(fam.n, out)


def diameter(fam: SetFamily) -> int:
    """Largest symmetric difference between two members; 0 below two members."""
    ms = fam.members
    best = 0
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            d = (a ^ b).bit_count()
            if d > best:
                best = d
    return best


def avoid(fam: SetFamily, x: int) -> SetFamily:
    """Members not containing the element x."""
    if not 1 <= x <= fam.n:
        raise ValueError(f"element {x} outside ground set [1, {fam.n}]")
    bit = 1 << (x - 1)
    return SetFamily(fam.n, tuple(m for m in fam.members if not m & bit))


def trace(fam: SetFamily, p_set: Iterable[int], q_set: Iterable[int]) -> SetFamily:
    """{F \\ Q : F in family, F intersect Q = P}, kept on the same ground set.

    Members of the result live inside [n] \\ Q; no re-indexing happens.
    """
    p = mask_of(p_set)
    q = mask_of(q_set)
    if p & ~q:
        raise ValueError(f"P {elements_of(p)} must be a subset of Q {elements_of(q)}")
    if q >> fam.n:
        raise ValueError(f"Q {elements_of(q)} has elements outside [1, {fam.n}]")
    return SetFamily.from_masks(
        fam.n, (m & ~q for m in fam.members if m & q == p))


# ---------------------------------------------------------------------------
# JSON round trip
#
# Canonical form: {"n": int, "sets": [[1-based sorted ints], ...]}.
# Compact alternate accepted on input: {"n": int, "hex": ["1f", ...]}, each
# string plain hex digits (no "0x", sign, "_" or spaces).

_HEX = re.compile(r"[0-9a-fA-F]+")


def family_to_json_dict(fam: SetFamily, form: str = "sets") -> dict:
    if form == "sets":
        return {"n": fam.n, "sets": list(map(list, map(elements_of, fam.members)))}
    if form == "hex":
        return {"n": fam.n, "hex": [format(m, "x") for m in fam.members]}
    raise ValueError(f"unknown family JSON form {form!r}")


def _list_of(value, kind: type) -> bool:
    """A JSON list whose items are all exactly of type kind (bool is not int)."""
    return type(value) is list and set(map(type, value)) <= {kind}


def family_from_json_dict(obj: dict) -> SetFamily:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("family JSON needs an 'n' field")
    n = obj["n"]
    if type(n) is not int:
        raise ValueError(f"'n' must be an integer, got {n!r}")
    if "sets" in obj:
        sets = obj["sets"]
        if not (_list_of(sets, list) and _list_of(list(chain.from_iterable(sets)), int)):
            raise ValueError("'sets' must be a list of lists of integers")
        return family_from_sets(n, sets)
    if "hex" in obj:
        hexes = obj["hex"]
        if not _list_of(hexes, str):
            raise ValueError("'hex' must be a list of strings")
        if not all(map(_HEX.fullmatch, hexes)):
            bad = next(h for h in hexes if not _HEX.fullmatch(h))
            raise ValueError(f"'hex' entry {bad!r} is not a string of hex digits")
        return SetFamily.from_masks(n, map(int, hexes, repeat(16)))
    raise ValueError("family JSON needs a 'sets' or 'hex' field")


def family_to_json(fam: SetFamily, form: str = "sets") -> str:
    return json.dumps(family_to_json_dict(fam, form))


def family_from_json(text: str) -> SetFamily:
    return family_from_json_dict(json.loads(text))
