"""Certificate-producing exact maximizers for the extremal quantities.

Each objective is defined in one place: its `Objective` record in
`OBJECTIVES`.  The record names the parameters (which the CLI turns into
required flags), the pairwise relation its families satisfy (one threshold
`meet` on |A & B|), whether it is shift-invariant, the member sizes it
counts, its seed constructions and its value.  `maximize`, `recheck`, both
engines and the CLI read the records and nothing else.  Every instance is
u-union: an intersecting k-family, the `diversity` instance, is
(2k - 1)-union.  Every value is a minimum over anchors a of the members
outside a's extremal family (one anchor for the counting objectives, an
element x for odd overflow and diversity, a ball center for diametral
overflow).  One evaluator, `_min_outside`, computes it on mask lists for
`recheck` and the public evaluators; the seeds, initial families like the
layered leaves, and `katona_overflow_of` take one count at the first
anchor (`_first_count`).

Two engines back `maximize`:

* A layered branch-and-bound over initial complexes.  Shifting preserves
  the union property and all layer sizes, and down-closure is free, so for
  shift-invariant objectives the search over initial complexes is lossless
  and its result is proven optimal.  A family is encoded by its layers
  above u/2 (anything of size <= u/2 is pairwise compatible and can be
  completed greedily); each layer is a down-set of the coordinatewise
  order whose shadow lies in the layer below.  The kernel, `_LayeredDFS`,
  runs the union rule for every objective, on int bitsets, and values a
  leaf, an initial complex, by its count at the first anchor.  Pruning
  uses one closed-form cap per level: layer k is t-intersecting for
  t = 2k - u, so it has at most the complete intersection maximum of
  t-intersecting k-families, and disabling pruning never changes the
  optimum.  The overflow objectives start from the best near-base rung,
  s = 1..d, as the seed.

* An unrestricted exhaustive engine that enumerates all maximal feasible
  families (Bron-Kerbosch with pivoting over the pairwise-compatibility
  graph, under the relation's own `meet`).  Every value, a minimum of
  member counts, is monotone under adding members, so the maximum over
  maximal families is the global maximum.  This is the independent oracle
  for the restricted engine and the only proven route for objectives not
  known to be shift-invariant.  Its anchor and witness bounds, and the
  roots it starts at, are justified in `_exhaustive`; pruned `nodes` can
  differ from a full enumeration's, the optimum and witness cannot.

Both engines index their sets by size, then in colex (ascending mask) order
(`_index_space`), the canonical key order.  Certificates carry one witness
(smallest canonical key among the maximizers found), the exact optimum, and
enough metadata to be re-checked by code that never touches the search
internals.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Sequence

from .core import (
    ALGEBRAIC_CAP, CapExceeded, SEARCH_CAP, SetFamily, family_from_json_dict,
    family_to_json_dict, is_diameter_at_most, is_t_intersecting, is_u_union,
    mask_key,
)
from .bounds import complete_intersection_bound
from . import constructions as cons

_EXHAUSTIVE_POOL_CAP = 600


# ---------------------------------------------------------------------------
# the one evaluator on mask lists

def _min_outside(obj: Objective, inst: _Instance,
                 masks: Sequence[int]) -> tuple[int, int | None]:
    """min over the anchors a of `obj` of the members outside a's extremal
    family, with the first minimizing anchor.  A count stops once it
    reaches the best so far, and the scan stops at 0."""
    outside = obj.outside
    best, best_a = len(masks) + 1, None
    for a in obj.anchors(inst):
        v = 0
        for m in masks:
            if outside(inst, a, m):
                v += 1
                if v >= best:
                    break
        else:
            best, best_a = v, a
            if not v:
                break
    return best, best_a


def _first_count(obj: Objective, inst: _Instance, masks: Sequence[int]) -> int:
    """The members outside the first anchor's family: an initial complex's value."""
    outside, a = obj.outside, next(iter(obj.anchors(inst)))
    return sum(outside(inst, a, m) for m in masks)


def _of(name: str, fam: SetFamily, u: int) -> tuple[int, int | None]:
    """`_min_outside` of the objective `name` on fam at union bound u, n <= max_n."""
    obj = OBJECTIVES[name]
    if fam.n > obj.max_n:
        raise CapExceeded(f"{name} needs n <= {obj.max_n}, got {fam.n}")
    return _min_outside(obj, _Instance(fam.n, u, ()), fam.members)


def overflow_even_of(fam: SetFamily, d: int) -> int:
    """Members of size above d, i.e. outside the even Katona family."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return _of("overflow_even", fam, 2 * d)[0]


def overflow_odd_of(fam: SetFamily, d: int) -> tuple[int, int | None]:
    """min over anchors x of the number of members M with |M \\ {x}| > d,
    together with the smallest minimizing x (None when n = 0)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    value, a = _of("overflow_odd", fam, 2 * d + 1)
    return value, a.bit_length() or None


def diametral_overflow(fam: SetFamily, u: int) -> tuple[int, int]:
    """min over centers A of the number of members outside the ball around A,
    with the colex-smallest minimizing center (as a mask)."""
    if u < 1:
        raise ValueError(f"need u >= 1, got {u}")
    return _of("diametral_overflow", fam, u)


def katona_overflow_of(fam: SetFamily, u: int) -> int:
    """Members outside the Katona family of the same parity: size > d for
    u = 2d, |M \\ {1}| > d for u = 2d + 1.  That is the diametral count at
    the empty center.

    For a complex this equals the diametral overflow (the empty center is
    always a minimizing ball center once down-shifts fix the family).  The
    min-over-anchors odd overflow is a strictly different quantity.
    """
    if u < 1:
        raise ValueError(f"need u >= 1, got {u}")
    return _first_count(OBJECTIVES["diametral_overflow"], _Instance(fam.n, u, ()),
                        fam.members)


# ---------------------------------------------------------------------------
# the objective registry

@dataclass(frozen=True)
class _Instance:
    """A validated objective instance, as both engines and recheck see it:
    u-union (intersecting k-families are (2k - 1)-union, as |A | B| =
    2k - |A & B|), with the constrained `levels` above u/2 and the
    `free_levels`, pairwise u-union, at or below it."""

    n: int
    u: int
    levels: tuple[int, ...]            # the layered engine's constrained levels
    free_levels: tuple[int, ...] = ()
    d: int = field(init=False)         # u // 2, a field: evaluators read it per member

    def __post_init__(self):
        object.__setattr__(self, "d", self.u // 2)


def _union_instance(n: int, u: int) -> _Instance:
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    return _Instance(n, u, tuple(range(u // 2 + 1, u + 1)), tuple(range(u // 2 + 1)))


def _overflow_instance(parity: int) -> Callable[[int, int], _Instance]:
    """Instances of the overflow objectives: u = 2d + parity."""
    def instance(n: int, d: int) -> _Instance:
        if d < 1 or n < 2 * d + 2:
            raise ValueError(f"need d >= 1 and n >= 2d + 2, got n={n}, d={d}")
        return _union_instance(n, 2 * d + parity)
    return instance


def _intersecting_instance(n: int, k: int) -> _Instance:
    if k < 1 or n <= 2 * k:
        raise ValueError(f"need k >= 1 and n > 2k, got n={n}, k={k}")
    return _Instance(n, 2 * k - 1, (k,))


@dataclass(frozen=True)
class _Relation:
    """What every pair of members of a feasible family satisfies, as one
    threshold: sets of sizes k and s are compatible exactly when they share
    at least meet(u, k, s) elements.  `meet` is the exhaustive engine's
    rule; the layered engine, whose families are all u-union, runs
    `_UNION.meet`.  `_incompat_rows` builds the bitsets from a rule."""

    meet: Callable[[int, int, int], int]             # u, k and s
    holds: Callable[[_Instance, SetFamily], bool]    # via core, for recheck
    reduction: str                     # the families the layered engine covers


# |A | B| = k + s - |A & B| <= u
_UNION = _Relation(
    lambda u, k, s: k + s - u,
    lambda i, fam: is_u_union(fam, i.u), "initial_complex")
# |A ^ B| = k + s - 2 |A & B| <= u.  A complex has diameter <= u exactly
# when it is u-union, so the layered engine searches down-shift complexes.
_DIAMETER = _Relation(
    lambda u, k, s: -((u - k - s) // 2),
    lambda i, fam: is_diameter_at_most(fam, i.u), "downshift_complex")
# k-sets with u = 2k - 1: compatible exactly when they meet
_INTERSECT = _Relation(
    _UNION.meet,
    lambda i, fam: (all(m.bit_count() == i.levels[0] for m in fam.members)
                    and is_t_intersecting(fam, 1)),
    "initial_complex")


@dataclass(frozen=True)
class Objective:
    """One search objective; `OBJECTIVES` holds the only definition of each.

    The value of a family is a minimum over anchors a, taken in the order
    `anchors` gives them, of its members outside a's extremal family: the
    members M with `outside(inst, a, M)`.  A minimum of member counts never
    decreases when members are added, which both engines rely on.  On the
    initial complexes that the layered engine searches it is the count at
    the first anchor (x = 1 by the shift x -> 1, the empty center by the
    down-shifts), which that engine bounds and values its leaves with, and
    `_Incumbent` its `seeds`: the Katona family for the counting objectives,
    every near-base rung N_s = {S : |S \\ [2s + u % 2]| <= d - s}, s = 1..d,
    for the overflow objectives (both `_rungs`), or `triangle` for diversity.
    `sizes` are the member sizes the exhaustive engine enumerates, by
    default the instance's `levels`: members of other sizes are infeasible
    or cannot raise the value, and every set of these sizes is
    self-compatible.  `roots` gives, ascending, the pool indices the pruned
    exhaustive engine starts at (the root lemma in `_exhaustive`).
    """

    params: tuple[str, ...]            # in the order `instance` takes them
    instance: Callable[[int, int], _Instance]   # validates the parameters
    relation: _Relation
    shift_invariant: bool              # initial complexes are lossless; the default
    seeds: Callable[[_Instance], list[SetFamily]]
    outside: Callable[[_Instance, int, int], bool]   # instance, anchor, member
    roots: Callable[[Sequence[int]], Iterable[int]]  # pool -> ascending indices
    sizes: Callable[[_Instance], Sequence[int]] = lambda i: i.levels
    anchors: Callable[[_Instance], Iterable[int]] = lambda i: (0,)   # one by default
    max_n: int = ALGEBRAIC_CAP         # the evaluator's; `maximize` caps at SEARCH_CAP


def _rungs(first: int,
           last: int | None = None) -> Callable[[_Instance], list[SetFamily]]:
    """Seeds: the rungs `constructions._near_katona(n, u, s)` for s = first..last,
    last = d by default."""
    return lambda i: [cons._near_katona(i.n, i.u, s)
                      for s in range(first, (i.d if last is None else last) + 1)]


def _points(i: _Instance) -> list[int]:
    """The anchors x in [n], as masks 1 << (x - 1); the empty mask when n = 0."""
    return [1 << x for x in range(i.n)] or [0]


def _size_roots(pool: Sequence[int]) -> list[int]:
    """The index of the colex-first set [s] = (1 << s) - 1 of each pool size
    s, the roots of the objectives invariant under permutations of [n]: a
    permutation takes a family's smallest member, an s-set, to [s], and its
    other members, of size at least s, after it."""
    return [i for i, m in enumerate(pool) if not m & (m + 1)]


def _empty_root(pool: Sequence[int]) -> tuple[int]:
    """The index of the empty set, first in a pool of every size, the root
    of the diameter objectives: translating every member by T, M -> M ^ T,
    keeps |A ^ B| and takes a member T to the empty set."""
    return (0,)


OBJECTIVES: dict[str, Objective] = {
    "max_union_size": Objective(
        ("n", "u"), _union_instance, _UNION, shift_invariant=True,
        sizes=lambda i: range(i.u + 1),
        seeds=_rungs(0, 0), outside=lambda i, a, m: True, roots=_size_roots),
    "max_diameter_size": Objective(
        ("n", "u"), _union_instance, _DIAMETER, shift_invariant=True,
        sizes=lambda i: range(i.n + 1),
        seeds=_rungs(0, 0), outside=lambda i, a, m: True, roots=_empty_root),
    "overflow_even": Objective(
        ("n", "d"), _overflow_instance(0), _UNION, shift_invariant=True,
        seeds=_rungs(1),
        outside=lambda i, a, m: m.bit_count() > i.d, roots=_size_roots),
    # |M \ {x}| > d: members above size d + 1 count for every x
    "overflow_odd": Objective(
        ("n", "d"), _overflow_instance(1), _UNION, shift_invariant=False,
        seeds=_rungs(1),
        anchors=_points, outside=lambda i, a, m: (m & ~a).bit_count() > i.d,
        roots=_size_roots),
    "upper_layers": Objective(
        ("n", "u"), _union_instance, _UNION, shift_invariant=True,
        # size >= r, where u = 2r or 2r - 1: that is 2 size >= u
        sizes=lambda i: range((i.u + 1) // 2, i.u + 1),
        seeds=_rungs(0, 0), outside=lambda i, a, m: 2 * m.bit_count() >= i.u,
        roots=_size_roots),
    # min-anchor avoidance: the members avoiding x
    "diversity": Objective(
        ("n", "k"), _intersecting_instance, _INTERSECT, shift_invariant=False,
        seeds=lambda i: [cons.triangle(i.n, i.levels[0])],
        anchors=_points, outside=lambda i, a, m: not m & a, roots=_size_roots),
    # members outside the ball (even u) or double ball (odd u) of radius d
    # around A.  The double ball ignores element 1, so A and A ^ {1} count
    # alike and only even centers are tried, the colex-smallest first.  A
    # translation by T moves center A to A ^ T or its even twin.
    "diametral_overflow": Objective(
        ("n", "u"), _union_instance, _DIAMETER, shift_invariant=False,
        sizes=lambda i: range(i.n + 1),
        seeds=_rungs(1),
        anchors=lambda i: range(0, 1 << i.n, 1 + i.u % 2),
        outside=lambda i, a, m: ((m ^ a) & ~(i.u % 2)).bit_count() > i.d,
        max_n=20, roots=_empty_root),   # the evaluator enumerates 2^n centers
}


def _objective(name: str) -> Objective:
    if not isinstance(name, str) or name not in OBJECTIVES:
        raise ValueError(f"unknown objective {name!r}")
    return OBJECTIVES[name]


def _check_params(obj: Objective, params: dict) -> None:
    if set(params) != set(obj.params):
        raise ValueError(f"need the parameters {', '.join(obj.params)}, "
                         f"got {', '.join(map(str, params)) or 'none'}")
    for p in obj.params:
        if type(params[p]) is not int:     # not even a bool
            raise ValueError(f"parameter {p} must be an integer, got {params[p]!r}")


def _instance(obj: Objective, params: dict) -> _Instance:
    _check_params(obj, params)
    n, *rest = (params[p] for p in obj.params)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > obj.max_n:
        raise CapExceeded(f"objective needs n <= {obj.max_n}, got {n}")
    return obj.instance(n, *rest)


# ---------------------------------------------------------------------------
# options and certificates

@dataclass(frozen=True)
class SearchOptions:
    """How `maximize` searches.

    `time_limit` (seconds) bounds the whole call, setup included; None or
    inf is no limit.  The search runs in one process, so `workers` accepts
    only 1; the field remains so that callers which pass `workers=1` keep
    working.  `use_pruning` governs both engines' bounds; turning it off
    changes only `nodes_explored`.
    """

    time_limit: float | None = None
    workers: int = 1
    restrict_to_initial_complexes: bool | None = None  # None = per-objective default
    use_pruning: bool = True

    def __post_init__(self):
        # NaN fails every comparison, so `not >= 0` rejects it too; inf is no limit
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"need time_limit >= 0, got {self.time_limit}")
        if self.workers != 1:
            raise ValueError(
                f"the search runs in one process: need workers = 1, got {self.workers}")


@dataclass(frozen=True, slots=True)
class SearchCertificate:
    objective: str
    params: dict
    optimum: int
    witness: SetFamily
    proven_optimal: bool
    reduction_used: str
    nodes_explored: int
    elapsed_ms: int
    maximizers: int | None = None
    timed_out: bool = False

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "params": dict(self.params),
            "optimum": str(self.optimum),
            "witness": family_to_json_dict(self.witness),
            "proven_optimal": self.proven_optimal,
            "reduction": self.reduction_used,
            "nodes": self.nodes_explored,
            "elapsed_ms": self.elapsed_ms,
            "maximizers": self.maximizers,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SearchCertificate":
        if not isinstance(obj, dict):
            raise ValueError("a certificate must be a JSON object")
        for key in ("objective", "params", "optimum", "witness", "proven_optimal",
                    "reduction", "nodes", "elapsed_ms"):
            if key not in obj:
                raise ValueError(f"certificate field {key!r} is missing")
        objective = _objective(obj["objective"])
        params = obj["params"]
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
        _check_params(objective, params)
        optimum = obj["optimum"]
        if isinstance(optimum, str) and re.fullmatch(r"-?[0-9]+", optimum):
            optimum = int(optimum)
        if type(optimum) is not int:
            raise ValueError(
                f"optimum must be an integer or a decimal string, got {optimum!r}")
        maximizers = obj.get("maximizers")
        if maximizers is not None and type(maximizers) is not int:
            raise ValueError(f"maximizers must be an integer or null, got {maximizers!r}")
        for key, kind in (("nodes", int), ("elapsed_ms", int),
                          ("proven_optimal", bool), ("reduction", str)):
            if type(obj[key]) is not kind:
                raise ValueError(f"{key} must be {kind.__name__}, got {obj[key]!r}")
        timed_out = obj.get("timed_out", False)
        if type(timed_out) is not bool:
            raise ValueError(f"timed_out must be bool, got {timed_out!r}")
        return cls(
            objective=obj["objective"],
            params=dict(params),
            optimum=optimum,
            witness=family_from_json_dict(obj["witness"]),
            proven_optimal=obj["proven_optimal"],
            reduction_used=obj["reduction"],
            nodes_explored=obj["nodes"],
            elapsed_ms=obj["elapsed_ms"],
            maximizers=maximizers,
            timed_out=timed_out,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# the incumbent: one rule for both engines

class _Incumbent:
    """The best family found so far.

    It starts at the best seed, an initial complex (`Objective`) valued by
    its count at the first anchor; the empty family, feasible for every
    objective and of value 0, is the seed of last resort.  The seed stays
    the result when no searched family reaches its value.  Among the
    searched families of the best value, `count` counts them and the
    witness is the one with the smallest canonical key (bit_count, mask).
    """

    def __init__(self, obj: Objective, inst: _Instance):
        seeds = obj.seeds(inst) + [SetFamily(inst.n, ())]
        values = [_first_count(obj, inst, fam.members) for fam in seeds]
        self.value = max(values)
        self.masks = seeds[values.index(self.value)].members   # first seed on ties
        self.key = None                # the witness's key, once a family is searched
        self.count = 0

    def offer(self, value: int, masks: Sequence[int]) -> bool:
        """Count a family whose value is at least the incumbent's, which the
        caller checks first; True if it is the witness.  The caller lists
        `masks` in canonical key order, as both engines' index spaces are."""
        key = tuple(map(mask_key, masks))
        if value > self.value:
            self.value, self.key, self.count = value, None, 0
        self.count += 1
        if self.key is None or key < self.key:
            self.key, self.masks = key, masks
            return True
        return False


# ---------------------------------------------------------------------------
# layered initial-complex engine

_CANDIDATE_CAP = 20_000


def _bitset(flags: Iterable[bool]) -> int:
    """The int whose bit i is set when the i-th flag is true, read from one
    '0'/'1' string (a sum of 1 << i costs the square of the length)."""
    return int("0" + "".join(["1" if f else "0" for f in flags])[::-1], 2)


def _bits(x: int):
    """The indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@lru_cache(maxsize=64)
def _level(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k-subsets of [n] as masks in colex order (ascending mask), and
    for each element x in [0, n) the bitset of those that contain x.  The
    tables are cached, so repeated searches, and the witnesses they
    return, share one set of mask objects."""
    level = tuple(sorted(map(sum, combinations([1 << x for x in range(n)], k))))
    return level, tuple(_bitset(m >> x & 1 for m in level) for x in range(n))


def _index_space(n: int, sizes: Iterable[int]) -> tuple[list[int], list[int], dict]:
    """The sets of the given sizes, level by level, each level in colex
    order (canonical key order when `sizes` ascend), with the bitsets has[x]
    of the sets holding x and spans[k] of the k-sets (`_incompat_rows`)."""
    masks: list[int] = []
    has, spans = [0] * n, {}
    for k in sizes:
        level, level_has = _level(n, k)
        spans[k] = ((1 << len(level)) - 1) << len(masks)
        for x, h in enumerate(level_has):
            has[x] |= h << len(masks)
        masks += level
    return masks, has, spans


def _incompat_rows(meet: Callable[[int, int, int], int], u: int,
                   has: Sequence[int], spans: dict[int, int]) -> Callable[[int], int]:
    """The incompatibility row of a set m over an index space, the sets c
    with |c & m| below meet(u, |c|, |m|), given the bitsets has[x] of the
    sets holding element x and spans[k] of the k-sets.  Adding has[x] over
    the x in m into bit planes (a bit-sliced counter) gives |c & m| for
    every c at once; the thresholds are worked out once per pair of sizes."""
    bars = {s: [(t, span) for k, span in spans.items() if (t := meet(u, k, s)) > 0]
            for s in spans}

    def row(m: int) -> int:
        planes: list[int] = []         # planes[i]: bit i of the count
        for x in _bits(m):
            carry = has[x]
            for i, p in enumerate(planes):
                planes[i] = p ^ carry
                carry &= p
                if not carry:
                    break
            if carry:
                planes.append(carry)
        inc = 0
        for t, span in bars[m.bit_count()]:
            # compare the count with t from the top bit down: `eq` holds
            # the sets whose count agrees with t on the bits so far
            eq = span
            for i in reversed(range(max(len(planes), t.bit_length()))):
                p = planes[i] if i < len(planes) else 0
                if t >> i & 1:
                    inc |= eq & ~p
                    eq &= p
                else:
                    eq &= ~p
        return inc
    return row


class _LayeredDFS:
    """The layered branch-and-bound, on int bitsets over one index space.

    Candidates are the sets of the constrained levels, by level and within
    a level in colex order (`_index_space`); index i < N is one candidate.
    The free sets (the levels below, completed greedily at a leaf) take the
    indices from N on, ascending by size, so a leaf lists its free sets,
    then its members, in canonical key order.  `counted` and
    `counted_candidates` mark the free sets and the candidates outside the
    first anchor's extremal family.  A leaf is an initial complex, so its
    value is its count there (`Objective`), `alive_n` plus its members in
    `counted_candidates`; the bound counts every candidate.  `has[x]` is
    the bitset of the sets that contain element x, and `incompat[j]` the
    sets incompatible with candidate j, counted by `_incompat_rows` under
    the union rule `_UNION.meet` on j's first inclusion: every family the
    engine covers is u-union (`_Instance`).
    `blocked` is the OR of `incompat` over the included members, so a set
    is compatible with all of them exactly when its bit is clear.  Each
    level has one cap, `caps0`: the complete intersection maximum of its
    layer, which is t-intersecting for t = 2k - u (`prune`).

    A candidate m = {a1 < ... < ak} needs its immediate predecessors and,
    above the lowest level, m minus a1: the levels are down-sets, and every
    other shadow member precedes that one.  Every need has a smaller index:
    sliding an element down lowers the mask.
    `ready` is the bitset of the candidates whose needs are all included;
    including i counts down `missing` for the candidates in `deps[i]`
    (built on i's first inclusion) and ORs in those that become ready.

    A node at pos branches on the first candidate j >= pos in `avail`, the
    ready candidates outside `blocked`: include j, then exclude it; either
    way the child starts at j + 1.  The path keeps the branch level `cl`
    and `count`, its members there; a j in a later level starts that level
    afresh.  With li pos's level, b(pos) = alive_n + len(stack) +
    min(room, ends[li] - pos) + tail[li]: the counted free sets outside
    `blocked`, the included members, what pos's level can still add (room
    is caps0[li] - count at `cl`, caps0[li] after it) and the caps of the
    levels after it, which hold no member.  A finished level's count is
    within its cap (`prune`), so b is the sum over levels of min(cap,
    count + candidates left from pos), which never rises as pos grows: a
    leaf (j = N) is its own check, and when prune(j) cuts the include
    child, b(j + 1) <= b(j) cuts the exclude child too.  The stack has one
    frame per included j: (j, then `count`, `blocked`, `avail` and alive_n
    before j); the frames are the only record of the path, and a leaf
    reads its members from them.  An exclude child shares its parent's
    frame; unwinding pops a frame, restores its values, sets `cl` to j's
    level, gives back j's `missing` counts and tries j's exclude child.
    """

    def __init__(self, obj: Objective, inst: _Instance, use_pruning: bool):
        self.inst = inst
        self.use_pruning = use_pruning
        n, levels = inst.n, inst.levels
        self.N = sum(comb(n, k) for k in levels)
        if self.N > _CANDIDATE_CAP:
            raise CapExceeded(
                f"{self.N} layer candidates exceed the cap of {_CANDIDATE_CAP}")
        # every set of the index space, has[x] and each level's bitset
        self.masks, self.has, spans = _index_space(n, levels + inst.free_levels)
        self.ends = [spans[k].bit_length() for k in levels]   # where each level ends
        self.level_of = [li for li, k in enumerate(levels) for _ in range(comb(n, k))]
        # layer k is t-intersecting, t = 2k - u (`prune`)
        self.caps0 = [complete_intersection_bound(n, k, 2 * k - inst.u) for k in levels]
        # the immediate predecessors, plus one shadow member above the lowest level
        self.missing0 = [(m & ~(m << 1) & ~1).bit_count() + (m.bit_count() > levels[0])
                         for m in self.masks[:self.N]]
        # the sets outside the first anchor's family: free (`counted`) and candidates
        outside, a0 = obj.outside, next(iter(obj.anchors(inst)))
        out = _bitset(outside(inst, a0, m) for m in self.masks)
        self.counted_candidates = out & ((1 << self.N) - 1)
        self.counted = out ^ self.counted_candidates
        self.index = dict(zip(self.masks[:self.N], range(self.N)))
        self.free = ((1 << len(self.masks)) - 1) ^ ((1 << self.N) - 1)
        self.deps: list[list[int] | None] = [None] * self.N
        self.incompat: list[int | None] = [None] * self.N
        self.incompat_row = _incompat_rows(_UNION.meet, inst.u, self.has, spans)

    def _deps(self, j: int) -> list[int]:
        """Build deps[j], the candidates that need candidate j: its immediate
        successors (one element slides up one slot) and the supersets one
        level up whose lowest element is new."""
        m, index = self.masks[j], self.index
        full = (1 << self.inst.n) - 1
        # x in m, x + 1 in [n] but not in m: x moves to x + 1
        out = [index[m ^ 3 << x] for x in _bits(m & ~(m >> 1) & full >> 1)]
        if self.level_of[j] + 1 < len(self.ends):
            out += [index[m | 1 << x] for x in _bits((m & -m) - 1)]
        self.deps[j] = out
        return out

    def run(self, incumbent: _Incumbent, deadline: float | None) -> tuple[int, bool]:
        """Offer every leaf the bounds leave open to the incumbent; return
        the nodes entered and whether the deadline stopped the search."""
        N, masks, level_of, free = self.N, self.masks, self.level_of, self.free
        deps, incompat, counted = self.deps, self.incompat, self.counted
        use_pruning, ends = self.use_pruning, self.ends
        counted_candidates, caps0 = self.counted_candidates, self.caps0
        # pos's level (N's is the last), and the constant that the levels
        # after a level add: their caps, never above their sizes
        level_at = level_of + [len(ends) - 1]
        tail = [sum(caps0[li + 1:]) for li in range(len(ends))]
        cl = count = 0                     # the branch level and its members
        missing = list(self.missing0)
        blocked = 0                        # sets incompatible with an included member
        avail = 1                          # ready candidates outside `blocked`: [k] alone
        alive_n = counted.bit_count()      # counted free sets outside `blocked`
        stack = []              # (j, count, blocked, avail, alive_n) at j's node

        def prune(pos: int) -> bool:
            """Cut when b(pos) is below the incumbent.  A level before pos's
            adds just its count: its members L, k-sets of a u-union family,
            are t-intersecting, as |A & B| = 2k - |A | B| >= 2k - u = t.  By
            the complete intersection theorem (Ahlswede and Khachatrian,
            1997), |L| <= max over 0 <= r <= (n - t)/2 of
            |{F : |F & [t + 2r]| >= t + r}| (`complete_intersection_bound`,
            at most `layer_bound`'s C(n, u - k)), that is count <= caps0[li]."""
            if not use_pruning:
                return False
            li = level_at[pos]
            # a level after `cl` holds no member
            room, left = caps0[li] - (count if li == cl else 0), ends[li] - pos
            return (alive_n + len(stack) + (room if room < left else left)
                    + tail[li] < incumbent.value)

        nodes = pos = 0
        while True:
            # enter the node at pos, unless the deadline has passed
            if deadline is not None and time.monotonic() >= deadline:
                return nodes, True
            nodes += 1
            open_ = avail >> pos
            j = pos + (open_ & -open_).bit_length() - 1 if open_ else N
            if j < N and level_of[j] != cl:    # a later level starts afresh
                cl, count = level_of[j], 0
            if j == N and len(stack) + alive_n >= incumbent.value:
                # a leaf: the free sets outside `blocked`, then its members
                # (one per frame), in index order, which is key order; the
                # incumbent ignores lower values
                value = alive_n + sum(counted_candidates >> f[0] & 1 for f in stack)
                if value >= incumbent.value:
                    incumbent.offer(value, [masks[b] for b in _bits(free & ~blocked)]
                                    + [masks[f[0]] for f in stack])
            elif j < N and not prune(j):
                # include j; when prune(j) cuts it, b(j + 1) <= b(j)
                # cuts the exclude child too
                newly = 0
                dj = deps[j]
                if dj is None:
                    dj = self._deps(j)
                for t in dj:
                    missing[t] -= 1
                    if not missing[t]:
                        newly |= 1 << t
                stack.append((j, count, blocked, avail, alive_n))
                inc = incompat[j]
                if inc is None:
                    inc = incompat[j] = self.incompat_row(masks[j])
                blocked |= inc
                unblocked = ~blocked
                avail = (avail | newly) & unblocked
                alive_n = (counted & unblocked).bit_count()
                count += 1
                if not prune(j + 1):
                    pos = j + 1
                    continue
            # unwind to the first included j whose exclude child is open
            while stack:
                j, count, blocked, avail, alive_n = stack.pop()
                for t in deps[j]:
                    missing[t] += 1
                cl = level_of[j]
                if not prune(j + 1):
                    break
            else:
                return nodes, False
            pos = j + 1


# ---------------------------------------------------------------------------
# unrestricted exhaustive engine (maximal feasible families)

def _pool(obj: Objective, inst: _Instance) -> tuple[list[int], list[int], list[int]]:
    """The exhaustive engine's candidate masks in canonical key order (size,
    then mask), for each anchor a the bitset of the candidates outside a's
    extremal family, and each candidate's adjacency row: the other
    candidates outside its `_incompat_rows` row (it is self-compatible)."""
    sizes = obj.sizes(inst)        # ascending, so the pool is in key order
    size = sum(comb(inst.n, k) for k in sizes)
    if size > _EXHAUSTIVE_POOL_CAP:
        raise CapExceeded(
            f"exhaustive pool of {size} candidates exceeds "
            f"{_EXHAUSTIVE_POOL_CAP}; use the initial-complex search")
    pool, has, spans = _index_space(inst.n, sizes)
    out = [_bitset(obj.outside(inst, a, m) for m in pool) for a in obj.anchors(inst)]
    row = _incompat_rows(obj.relation.meet, inst.u, has, spans)
    full = (1 << size) - 1
    adj = [(full & ~row(m)) ^ 1 << i for i, m in enumerate(pool)]
    return pool, out, adj


def _keys_not_below(a: int, w: int) -> bool:
    """The witness bound's test on pool bitsets: when it holds, no family F
    within a, other than a proper subset of w, has a smaller key than w.

    Keys compare as the ascending index sequences, since the pool is in key
    order.  The i-th smallest index of F is at least that of a, so when the
    lowest index d where a and w differ is in w (or a = w), F agrees with w
    below d at best and then has a larger index or ends, and ending there
    makes F a proper subset of w.  With w = 0, no searched witness yet, the
    test fails for every nonempty a, so nothing is cut before a witness.
    """
    d = a ^ w
    return not d or d & -d & w != 0


def _exhaustive(pool: list[int], adj: list[int], out: list[int],
                roots: Iterable[int], incumbent: _Incumbent,
                deadline: float | None, use_pruning: bool) -> tuple[int, bool]:
    """Value each maximal feasible family R (a pool bitset) that the bounds
    leave open as min_a |R & out[a]| and offer it to the incumbent; return
    how many were valued and whether the deadline stopped the enumeration.

    Every maximal family below a node (R, P, X) is R | S with S within P.
    With pruning, a node is entered only when both bounds leave it open:

    * anchor bound: min_a |(R | P) & out[a]| >= incumbent.value, since a
      minimum of member counts never decreases when members are added;
    * witness bound: when some anchor's count equals incumbent.value, no
      family below can beat the incumbent, only tie it, and once a searched
      witness W exists a tie matters only with a smaller key.  The pool is
      in key order, so a family F within A = R | P has its i-th smallest
      index at least A's; when the lowest index where A and W differ is in
      W (or A = W), every such F is a proper subset of W, which is not
      maximal, or has a key at least W's (`_keys_not_below`).

    Each child is tested before the call, so a cut child costs no call, and
    each call checks the deadline first, as each layered node does.
    Only ties with smaller keys are offered, so the optimum and witness do
    not depend on pruning, and the count of valued families falls toward 1
    when the seed is already optimal.

    The search starts once per root, at each index i that `roots` yields in
    ascending order, r = pool[i], at the node ({r}, the compatible pool sets
    after r, those before r), which holds exactly the maximal families whose
    smallest member is r.  Without pruning every pool index is a root, so
    every maximal family is valued once, under its smallest member, and the
    unpruned engine stays the oracle.  With pruning only the objective's
    roots are passed, which the root lemma justifies: suppose every family
    F has a symmetry g of the relation and the value whose image g(F) has a
    root r as its smallest member, with r <= min F in key order.  Let W be
    the optimal maximal family with the smallest key.  Then g(W) is also
    optimal and maximal, so key(g(W)) >= key(W), and their first entries
    give r >= min W >= r.  So W starts at a root, and the optimum and the
    witness cannot change.
    """
    cliques = 0
    wb = 0                              # the searched witness's pool bitset, or 0
    bounded = out if use_pruning else ()    # without pruning no bound cuts

    def expand(r: int, p: int, x: int) -> bool:
        """Search below (r, p, x); True once the deadline has passed."""
        nonlocal cliques, wb
        if deadline is not None and time.monotonic() >= deadline:
            return True
        if not p:                       # x is empty too: R is maximal
            cliques += 1
            value = min((r & o).bit_count() for o in out)
            if value >= incumbent.value and incumbent.offer(
                    value, [pool[i] for i in _bits(r)]):
                wb = r
            return False
        # any pivot is valid; a vertex of P is adjacent to at most |P| - 1
        most = p.bit_count() - 1
        best = -1
        mm = p | x
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            deg = (p & adj[v]).bit_count()
            if deg > best:
                best, pivot = deg, v
                if deg >= most:
                    break
        cand = p & ~adj[pivot]
        while cand:
            vb = cand & -cand
            cand ^= vb
            av = adj[vb.bit_length() - 1]
            pc, xc = p & av, x & av
            p ^= vb
            x |= vb
            if xc and not pc:
                continue                # R | v extends only into X: not maximal
            a = r | vb | pc
            value, tie = incumbent.value, False
            for o in bounded:
                c = (a & o).bit_count()
                if c < value:
                    break               # the anchor bound
                tie = tie or c == value
            else:
                if not (tie and _keys_not_below(a, wb)) and expand(r | vb, pc, xc):
                    return True
        return False

    for i in roots:
        vb, av = 1 << i, adj[i]
        p, x = av & ~(vb - 1), av & (vb - 1)
        # else {r} extends only into X: not maximal
        if (p or not x) and expand(vb, p, x):
            return cliques, True
    return cliques, False


# ---------------------------------------------------------------------------
# maximize

def maximize(objective: str, params: dict,
             options: SearchOptions | None = None) -> SearchCertificate:
    """Exact maximization with a re-checkable certificate.

    Shift-invariant objectives default to the initial-complex search and
    are proven optimal; the others default to unrestricted exhaustive
    search (tiny ground sets only).  Forcing restriction for the latter
    yields a certified lower bound with proven_optimal False.
    """
    t0 = time.monotonic()
    obj = _objective(objective)
    options = options or SearchOptions()
    inst = _instance(obj, params)
    if inst.n > SEARCH_CAP:
        raise CapExceeded(f"search needs n <= {SEARCH_CAP}, got {inst.n}")
    restricted = options.restrict_to_initial_complexes
    if restricted is None:
        restricted = obj.shift_invariant
    deadline = None if options.time_limit is None else t0 + options.time_limit
    # each engine refuses too many candidates before the seeds are built
    if restricted:
        engine = _LayeredDFS(obj, inst, options.use_pruning)
        incumbent = _Incumbent(obj, inst)
        nodes, timed_out = engine.run(incumbent, deadline)
        # no count when the search stopped early or only the seed reached
        # the optimum
        maximizers = None if timed_out else incumbent.count or None
        proven = obj.shift_invariant and not timed_out
        reduction = obj.relation.reduction
    else:
        pool, out, adj = _pool(obj, inst)
        incumbent = _Incumbent(obj, inst)
        roots = obj.roots(pool) if options.use_pruning else range(len(pool))
        nodes, timed_out = _exhaustive(pool, adj, out, roots, incumbent,
                                       deadline, options.use_pruning)
        maximizers, proven, reduction = None, not timed_out, "none"
    return SearchCertificate(
        objective=objective, params=dict(params),
        optimum=incumbent.value,
        witness=SetFamily.from_masks(inst.n, incumbent.masks),
        proven_optimal=proven, reduction_used=reduction,
        nodes_explored=nodes, elapsed_ms=int((time.monotonic() - t0) * 1000),
        maximizers=maximizers, timed_out=timed_out)


# ---------------------------------------------------------------------------
# certificate rechecking

def recheck(cert: SearchCertificate) -> bool:
    """Re-derive feasibility (through core's predicates) and the objective
    value of the witness; never trusts anything search-internal."""
    try:
        obj = _objective(cert.objective)
        inst = _instance(obj, cert.params)
    except (ValueError, CapExceeded):
        return False
    fam = cert.witness
    if fam.n != inst.n or not obj.relation.holds(inst, fam):
        return False
    return _min_outside(obj, inst, fam.members)[0] == cert.optimum
