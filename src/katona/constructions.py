"""Generators for the named extremal families, parameterized and exact.

Most of the families here are "few elements outside a small base" families,
i.e. {S in 2^[n] : |S \\ B| <= c} for a fixed base B, so one helper produces
them all without enumerating 2^[n].  For u = 2d + h, the rungs of the ladder
N_s(n, u) = {S : |S \\ [2s + h]| <= d - s} are u-union (two members share the
base and add d - s elements each at most): s = 0 is `katona`, s = 1 `b_family`
/ `g_family`, s = 2 `d_even` / `d_odd5`, s = 3 `d_2r`.  Each family is counted
in closed form, and refused above `MEMBER_CAP` members, before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb
from typing import Callable

from .core import (CapExceeded, MEMBER_CAP, SetFamily, mask_of, elements_of,
                   subsets_of, _check_ground)

@dataclass(frozen=True)
class ConstructionSpec:
    """Name plus integer parameters; `center` is only used by `ball`."""

    name: str
    params: dict = field(default_factory=dict)
    center: tuple[int, ...] = ()


def _capped(n: int, size: Callable[[], int]) -> None:
    """Check the ground set, then refuse a family of size() > MEMBER_CAP
    members; size is called only for a valid n, where it is cheap."""
    _check_ground(n)
    if (count := size()) > MEMBER_CAP:
        raise CapExceeded(f"{count} members exceed the cap of {MEMBER_CAP}")


def _near_base(n: int, base: tuple[int, ...], c: int) -> SetFamily:
    """{S subset [n] : |S \\ base| <= c}, for a base inside [n]."""
    rest = n - len(base)
    _capped(n, lambda: sum(comb(rest, j) for j in range(min(c, rest) + 1)) << len(base))
    subs = tuple(subsets_of(mask_of(base)))
    bits = [1 << (e - 1) for e in range(1, n + 1) if e not in base]  # distinct: sum = OR
    return SetFamily.from_masks(n, [
        sub | m for size in range(min(c, rest) + 1)
        for m in map(sum, combinations(bits, size)) for sub in subs])


def _near_katona(n: int, u: int, s: int, name: str = "d") -> SetFamily:
    """The ladder rung N_s(n, u) = {S : |S \\ [2s + h]| <= d - s}, u = 2d + h;
    `name` is the caller's name for d in the error message."""
    d, h = divmod(u, 2)
    if d < s:
        raise ValueError(f"need {name} >= {s}, got {d}")
    if n < 2 * s + h:
        raise ValueError(f"need n >= {2 * s + h}, got {n}")
    return _near_base(n, tuple(range(1, 2 * s + h + 1)), d - s)


def katona(n: int, u: int) -> SetFamily:
    """All sets of size <= d for u = 2d; all sets with |K \\ {1}| <= d for u = 2d + 1."""
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    return _near_katona(n, u, 0)


def katona_x(n: int, u: int, x: int) -> SetFamily:
    """Odd-u variant anchored at an arbitrary element: |K \\ {x}| <= d."""
    if u % 2 == 0:
        raise ValueError(f"anchored family needs odd u, got {u}")
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    if not 1 <= x <= n:
        raise ValueError(f"anchor {x} outside [1, {n}]")
    return _near_base(n, (x,), u // 2)


def katona_star(n: int, u: int) -> SetFamily:
    """The extremal u-union family among those not inside the Katona family.

    Even u = 2d: drop the d-sets disjoint from [d+1], add [d+1].
    Odd u = 2d+1: drop the (d+1)-sets containing 1 and avoiding [2, d+2],
    add [2, d+2].  Exactly one member lies outside the Katona family and
    the result stays u-union.
    """
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    d = u // 2
    base = set(katona(n, u).members)
    if u % 2 == 0:
        head = mask_of(range(1, d + 2))
        base = {m for m in base if not (m.bit_count() == d and m & head == 0)}
        base.add(head)
    else:
        block = mask_of(range(2, d + 3))
        base = {m for m in base
                if not (m.bit_count() == d + 1 and m & 1 and m & block == 0)}
        base.add(block)
    return SetFamily.from_masks(n, base)


def full_star(n: int, k: int, t: int) -> SetFamily:
    """All k-sets containing [t]."""
    if not (n > k >= t > 0):
        raise ValueError(f"need n > k >= t > 0, got n={n}, k={k}, t={t}")
    _capped(n, lambda: comb(n - t, k - t))
    head = mask_of(range(1, t + 1))
    return SetFamily.from_masks(
        n, (head | mask_of(rest) for rest in combinations(range(t + 1, n + 1), k - t)))


def hilton_milner(n: int, k: int) -> SetFamily:
    """k-sets containing 1 that meet [2, k+1], plus [2, k+1] itself."""
    if k < 1 or not n > 2 * k:
        raise ValueError(f"need n > 2k >= 2, got n={n}, k={k}")
    _capped(n, lambda: comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1)
    block = mask_of(range(2, k + 2))
    masks = [block]
    for rest in combinations(range(2, n + 1), k - 1):
        m = 1 | mask_of(rest)
        if m & block:
            masks.append(m)
    return SetFamily.from_masks(n, masks)


def triangle(n: int, k: int) -> SetFamily:
    """k-sets meeting [3] in at least two elements."""
    if not n > 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    insides = [i for i in ((1, 2), (1, 3), (2, 3), (1, 2, 3)) if len(i) <= k]
    _capped(n, lambda: sum(comb(n - 3, k - len(i)) for i in insides))
    masks = []
    for inside in insides:
        need = k - len(inside)
        im = mask_of(inside)
        for rest in combinations(range(4, n + 1), need):
            masks.append(im | mask_of(rest))
    return SetFamily.from_masks(n, masks)


def b_family(n: int, d: int) -> SetFamily:
    """{B : |B \\ [2]| <= d - 1}; a 2d-union family with one overflow layer."""
    return _near_katona(n, 2 * d, 1)


def d_even(n: int, d: int) -> SetFamily:
    """{D : |D \\ [4]| <= d - 2}; 2d-union, overflow exceeds the even bound below n = 4d - 1."""
    return _near_katona(n, 2 * d, 2)


def d_2r(n: int, r: int) -> SetFamily:
    """{D : |D \\ [6]| <= r - 3}; the 2r-union family behind the crossover analysis."""
    return _near_katona(n, 2 * r, 3, "r")


def d_odd5(n: int, r: int) -> SetFamily:
    """{F : |F \\ [5]| <= r - 2}; the (2r+1)-union analogue on base [5]."""
    return _near_katona(n, 2 * r + 1, 2, "r")


def g_family(n: int, d: int) -> SetFamily:
    """{G : |G \\ [3]| <= d - 1}; a (2d+1)-union family with two overflow layers."""
    return _near_katona(n, 2 * d + 1, 1)


def ball(n: int, center: tuple[int, ...], u: int) -> SetFamily:
    """{K xor A : K in katona(n, u)}: the ball (even u) or double ball (odd u)."""
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    a = mask_of(center)
    if a >> n:
        raise ValueError(f"center {center} has elements outside [1, {n}]")
    return SetFamily.from_masks(n, (m ^ a for m in katona(n, u).members))


def lex_segment(n: int, k: int, m: int) -> SetFamily:
    """First m members of the k-sets in lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= m <= comb(n, k):
        raise ValueError(f"segment length {m} outside [0, C({n},{k})]")
    _capped(n, lambda: m)
    return SetFamily.from_masks(
        n, (mask_of(c) for c in islice(combinations(range(1, n + 1), k), m)))


def lex_rank(n: int, k: int, mask: int) -> int:
    """0-based position of a k-set in lexicographic order; inverse of lex_segment."""
    els = elements_of(mask)
    if len(els) != k:
        raise ValueError(f"expected a {k}-set, got size {len(els)}")
    if els and els[-1] > n:
        raise ValueError(f"set {els} has elements outside [1, {n}]")
    rank = 0
    prev = 0
    for i, e in enumerate(els):
        for v in range(prev + 1, e):
            rank += comb(n - v, k - i - 1)
        prev = e
    return rank


# name -> (function, its parameters in call order); `center` is the spec's
# center, every other parameter an integer from the spec's params
CONSTRUCTIONS = {
    "katona": (katona, ("n", "u")),
    "katona_star": (katona_star, ("n", "u")),
    "katona_x": (katona_x, ("n", "u", "x")),
    "full_star": (full_star, ("n", "k", "t")),
    "hilton_milner": (hilton_milner, ("n", "k")),
    "triangle": (triangle, ("n", "k")),
    "b_family": (b_family, ("n", "d")),
    "d_even": (d_even, ("n", "d")),
    "d_2r": (d_2r, ("n", "r")),
    "d_odd5": (d_odd5, ("n", "r")),
    "g_family": (g_family, ("n", "d")),
    "ball": (ball, ("n", "center", "u")),
    "lex_segment": (lex_segment, ("n", "k", "m")),
}


def construct(spec: ConstructionSpec) -> SetFamily:
    """Materialize a ConstructionSpec; parameter validation is per family."""
    if spec.name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {spec.name!r}")
    fn, names = CONSTRUCTIONS[spec.name]
    args = {**spec.params, "center": spec.center}
    missing = [p for p in names if p not in args]
    if missing:
        raise ValueError(f"construction {spec.name} needs {', '.join(missing)}")
    return fn(*(args[p] for p in names))
