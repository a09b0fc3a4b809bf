import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from katona import (
    CapExceeded, SearchCertificate, SearchOptions, SetFamily, at_least,
    b_family, ball, complete_intersection_bound, d_2r, d_even, d_even_overflow,
    d_odd5, diameter, diametral_overflow, down_closure, elements_of,
    family_from_sets, g_family, is_complex, is_initial, layer_bound,
    katona, katona_bound, katona_overflow_of, make_initial, maximize,
    near_base_overflow, overflow_even_of, overflow_odd_of, recheck, mask_of,
    search, triangle, verify_hilton, walk_gap_bound, walk_skip_bound,
)
from katona.core import mask_key
from helpers import random_family, random_u_union_family


# -- direct evaluators -----------------------------------------------------------

def test_overflow_even_examples():
    assert overflow_even_of(b_family(6, 2), 2) == 4
    assert overflow_even_of(katona(8, 4), 2) == 0
    assert overflow_even_of(d_even(10, 3), 3) == 31


def test_overflow_odd_examples():
    value, best_x = overflow_odd_of(g_family(8, 2), 2)
    assert value == 10 and best_x == 1
    assert overflow_odd_of(katona(7, 3), 1) == (0, 1)


def test_diametral_of_balls():
    for n in range(2, 6):
        for u in range(1, n):
            for center_mask in range(1 << n):
                from katona import elements_of
                fam = ball(n, elements_of(center_mask), u)
                value, got = diametral_overflow(fam, u)
                assert value == 0
                if u % 2 == 0:
                    assert got == center_mask
                else:
                    # double balls have two center representations
                    assert got in (center_mask, center_mask ^ 1)


def test_diametral_on_b_family():
    value, center = diametral_overflow(b_family(6, 2), 4)
    assert value == 4 and center == 0


def test_diametral_below_plain_overflow():
    rng = random.Random(41)
    strict_seen = False
    for _ in range(200):
        n = rng.randrange(2, 6)
        fam = random_family(rng, n, 8)
        for u in range(1, n):
            kappa = diametral_overflow(fam, u)[0]
            sigma = katona_overflow_of(fam, u)
            assert kappa <= sigma
            if kappa < sigma:
                strict_seen = True
    assert strict_seen


def test_complexes_have_equal_overflows():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randrange(2, 7)
        fam = down_closure(random_family(rng, n, 8))
        for u in range(1, n):
            assert katona_overflow_of(fam, u) == diametral_overflow(fam, u)[0]


@cache
def _ball_members(n: int, center: int, u: int) -> frozenset[int]:
    return frozenset(ball(n, elements_of(center), u).members)


def _first_min(counts: list[int]) -> tuple[int, int]:
    return min(counts), counts.index(min(counts))


def test_evaluators_match_their_definitions():
    # brute-force counts straight from the definitions: sets of elements for
    # the anchored families, the ball and Katona constructions for the rest
    rng = random.Random(43)
    diversity, upper = search.OBJECTIVES["diversity"], search.OBJECTIVES["upper_layers"]
    for _ in range(250):
        n = rng.randrange(0, 8)
        fam = random_family(rng, n, 12)
        members = set(fam.members)
        sets = [set(elements_of(m)) for m in fam.members]
        for d in range(1, 4):
            assert overflow_even_of(fam, d) == sum(len(s) > d for s in sets)
            by_x = [sum(len(s - {x}) > d for s in sets) for x in range(1, n + 1)]
            value, i = _first_min(by_x) if n else (sum(len(s) > d for s in sets), -1)
            assert overflow_odd_of(fam, d) == (value, i + 1 if n else None)
        for u in range(1, n):
            by_center = [len(members - _ball_members(n, a, u)) for a in range(1 << n)]
            assert diametral_overflow(fam, u) == _first_min(by_center)
            assert katona_overflow_of(fam, u) == len(members - set(katona(n, u).members))
            inst = search._instance(upper, {"n": n, "u": u})
            r = (u + 1) // 2                  # u = 2r or u = 2r - 1
            assert search._min_outside(upper, inst, fam.members)[0] == sum(
                len(s) >= r for s in sets)
        if n >= 3:
            inst = search._instance(diversity, {"n": n, "k": 1})
            value, i = _first_min([sum(x not in s for s in sets) for x in range(1, n + 1)])
            assert search._min_outside(diversity, inst, fam.members) == (value, 1 << i)


def _compatible(obj, u, a, b):
    """The objective's relation on masks a and b, from its `meet` threshold."""
    return (a & b).bit_count() >= obj.relation.meet(u, a.bit_count(), b.bit_count())


# the pairwise definitions of the three relations, on masks a, b and u
PAIRWISE = {
    search._UNION: lambda a, b, u: (a | b).bit_count() <= u,
    search._DIAMETER: lambda a, b, u: (a ^ b).bit_count() <= u,
    search._INTERSECT: lambda a, b, u: a & b != 0,
}


def test_exhaustive_bitset_value_matches_mask_list_value():
    # the exhaustive engine values a family R, a bitset over its pool, as
    # min over anchors a of |R & out[a]|
    rng = random.Random(44)
    for obj in search.OBJECTIVES.values():
        for n in range(1, 8):
            for v in range(n + 1):
                try:
                    inst = search._instance(obj, dict(zip(obj.params, (n, v))))
                except ValueError:
                    continue
                pool, out, _ = search._pool(obj, inst)
                for _ in range(4):
                    r, masks = 0, []
                    for i in rng.sample(range(len(pool)), len(pool) // 2):
                        m = pool[i]
                        if all(_compatible(obj, inst.u, m, o) for o in masks + [m]):
                            r |= 1 << i
                            masks.append(m)
                    assert (min((r & o).bit_count() for o in out)
                            == search._min_outside(obj, inst, sorted(masks))[0])


# t such that the layered bound counts exactly the free sets of size >= t,
# the members outside the first anchor's extremal family (diversity has
# no free sets)
COUNTED_FROM = {
    "max_union_size": lambda i: 0, "max_diameter_size": lambda i: 0,
    "overflow_even": lambda i: i.d + 1, "overflow_odd": lambda i: i.d + 1,
    "diametral_overflow": lambda i: i.d + 1, "upper_layers": lambda i: (i.u + 1) // 2,
    "diversity": lambda i: 0,
}


def test_layered_bitsets_match_their_definitions():
    # the layered engine's index space holds the candidates by level, then
    # the free sets by size, each level in colex order (ascending mask), and
    # the exhaustive pool is in canonical key order (size, then mask); `has[x]`
    # marks the sets containing x, `incompat_row` the sets whose union with
    # a candidate has more than u elements (u = 2k - 1 for the intersecting
    # objective) and `counted` the free sets of size >= COUNTED_FROM.  The
    # exhaustive pool's adjacency rows, from the same counter, hold the
    # other candidates compatible under the objective's own relation, every
    # size of the pool is self-compatible, and the roots are the pool
    # indices of [s], one per pool size, or of the empty set, first in the
    # pool.
    for name, obj in search.OBJECTIVES.items():
        pairwise = PAIRWISE[obj.relation]
        for n in range(1, 9):
            for v in range(n + 1):
                try:
                    inst = search._instance(obj, dict(zip(obj.params, (n, v))))
                except ValueError:
                    continue
                u = inst.u
                for s in obj.sizes(inst):
                    assert pairwise((1 << s) - 1, (1 << s) - 1, u), (obj, n, v, s)
                if n <= 7:
                    pool, _, adj = search._pool(obj, inst)
                    assert pool == sorted(
                        (mask_of(c) for k in obj.sizes(inst)
                         for c in combinations(range(1, n + 1), k)),
                        key=mask_key), (obj, n, v)
                    for i, a in enumerate(pool):
                        assert adj[i] == sum(
                            1 << j for j, b in enumerate(pool)
                            if j != i and pairwise(a, b, u)), (obj, n, v, i)
                    roots = list(obj.roots(pool))
                    if obj.roots is search._size_roots:
                        assert roots == sorted(roots)
                        assert [pool[i] for i in roots] == [
                            (1 << s) - 1 for s in sorted({m.bit_count() for m in pool})]
                    else:
                        assert roots == [0] and pool[0] == 0, (obj, n, v)
                dfs = search._LayeredDFS(obj, inst, True)
                masks = dfs.masks
                assert masks == [m for k in inst.levels + inst.free_levels
                                 for m in sorted(mask_of(c) for c in
                                                 combinations(range(1, n + 1), k))]
                assert dfs.space == sorted(masks, key=mask_key), (obj, n, v)
                for x in range(n):
                    assert dfs.has[x] == sum(
                        1 << i for i, m in enumerate(masks) if m >> x & 1)
                for j in range(dfs.N):
                    a = masks[j]
                    assert dfs.incompat_row(a) == sum(
                        1 << i for i, b in enumerate(masks)
                        if (a | b).bit_count() > u), (obj, n, v, j)
                t = COUNTED_FROM[name](inst)
                assert dfs.counted == sum(
                    1 << i for i in range(dfs.N, len(masks))
                    if masks[i].bit_count() >= t), (name, n, v)


def _instances(max_n):
    """Every valid instance with n <= max_n, as (name, objective, params,
    instance)."""
    for name, obj in search.OBJECTIVES.items():
        for n in range(1, max_n + 1):
            for v in range(n + 1):
                params = dict(zip(obj.params, (n, v)))
                try:
                    yield name, obj, params, search._instance(obj, params)
                except ValueError:
                    continue


def test_every_instance_is_u_union():
    # an intersecting k-family is (2k - 1)-union, so every instance has an
    # integer u; the constrained levels lie above u/2 and the free ones at
    # or below it, and for the union and intersecting objectives the union
    # rule, which the layered engine runs, decides compatibility on every
    # pair of its sets exactly as the objective's own relation
    for name, obj, _, inst in _instances(6):
        u = inst.u
        assert type(u) is int, (name, inst)
        assert all(2 * k > u for k in inst.levels), (name, inst)
        assert all(2 * k <= u for k in inst.free_levels), (name, inst)
        if name == "diversity":
            assert inst.free_levels == (), inst
        if obj.relation not in (search._UNION, search._INTERSECT):
            continue
        pairwise = PAIRWISE[obj.relation]
        sets = [mask_of(c) for k in inst.levels + inst.free_levels
                for c in combinations(range(1, inst.n + 1), k)]
        for a in sets:
            for b in sets:
                assert (((a & b).bit_count()
                         >= search._UNION.meet(u, a.bit_count(), b.bit_count()))
                        == pairwise(a, b, u)), (name, inst, a, b)


def test_first_anchor_minimizes_on_initial_complexes():
    # the layered engine values a leaf, an initial complex, by its count at
    # the first anchor (x = 1, or the empty center): shifting x -> 1 shows
    # that x = 1 minimizes, and down-shifts that the empty center does
    rng = random.Random(45)
    families = 0
    for name, obj, _, inst in _instances(8):
        n = inst.n
        for _ in range(10):
            if obj.relation is search._INTERSECT:   # k-uniform intersecting
                k, masks = inst.levels[0], []
                for _ in range(rng.randrange(1, 16)):
                    m = mask_of(rng.sample(range(1, n + 1), k))
                    if all(m & o for o in masks):
                        masks.append(m)
                fam = make_initial(SetFamily.from_masks(n, masks))[0]
            else:
                fam = random_u_union_family(rng, n, inst.u, rng.randrange(1, 30))
                fam = down_closure(make_initial(fam)[0])
                assert is_complex(fam)
            assert is_initial(fam) and obj.relation.holds(inst, fam), (name, fam)
            assert (search._min_outside(obj, inst, fam.members)[0]
                    == search._first_count(obj, inst, fam.members)), (name, fam)
            families += 1
    assert families > 1000


def test_seeds_are_initial_rungs_valued_at_their_first_anchor():
    # `_Incumbent` values each seed at the first anchor and never checks its
    # feasibility: every seed is a feasible initial complex (an initial
    # intersecting k-family for diversity), where that count is the minimum
    seeds = 0
    for name, obj, _, inst in _instances(12):
        for fam in obj.seeds(inst):
            assert obj.relation.holds(inst, fam) and is_initial(fam), (name, inst)
            assert obj.relation is search._INTERSECT or is_complex(fam), (name, inst)
            assert (search._min_outside(obj, inst, fam.members)[0]
                    == search._first_count(obj, inst, fam.members)), (name, inst)
            seeds += 1
    assert seeds > 300
    # the rungs are the named constructions: the Katona family for the
    # counting objectives, the near-base rungs s = 1..d for the overflows
    seeds_of = lambda name, **params: search.OBJECTIVES[name].seeds(
        search._instance(search.OBJECTIVES[name], params))
    assert seeds_of("max_union_size", n=9, u=5) == [katona(9, 5)]
    assert seeds_of("overflow_even", n=10, d=3) == [
        b_family(10, 3), d_even(10, 3), d_2r(10, 3)]
    assert seeds_of("overflow_even", n=6, d=1) == [b_family(6, 1)]
    assert seeds_of("overflow_odd", n=9, d=2) == [g_family(9, 2), d_odd5(9, 2)]
    assert seeds_of("diametral_overflow", n=8, u=4) == [b_family(8, 2), d_even(8, 2)]
    assert seeds_of("diametral_overflow", n=8, u=5) == [g_family(8, 2), d_odd5(8, 2)]
    assert seeds_of("diametral_overflow", n=8, u=1) == []
    assert seeds_of("diversity", n=9, k=3) == [triangle(9, 3)]


def test_needs_are_predecessors_and_one_shadow_member():
    # a candidate m needs its immediate predecessors (one element slides
    # down one slot) and, above the lowest level, m minus its lowest
    # element: the other shadow members precede that one coordinatewise,
    # and every level is a down-set.  `missing0` counts the needs, and
    # `_tables(j)` lists the candidates that need j in deps[j], with j's
    # incompatibility row in incompat[j]
    for name, obj, _, inst in _instances(8):
        dfs = search._LayeredDFS(obj, inst, True)
        needs = [[] for _ in range(dfs.N)]
        for j in range(dfs.N):
            dfs._tables(j)
            assert dfs.incompat[j] == dfs.incompat_row(dfs.masks[j]), (name, j)
            for t in dfs.deps[j]:
                needs[t].append(j)
        for t, m in enumerate(dfs.masks[:dfs.N]):
            want = [m ^ 3 << x - 1 for x in range(1, inst.n)
                    if m >> x & 1 and not m >> x - 1 & 1]
            if dfs.level_of[t]:
                want.append(m & (m - 1))
            assert sorted(dfs.masks[j] for j in needs[t]) == sorted(want), (name, m)
            assert dfs.missing0[t] == len(needs[t]), (name, m)
            assert all(j < t for j in needs[t]), (name, m)
        # only [k], the first candidate, has no needs: the search starts
        # with it alone ready
        assert [t for t, c in enumerate(dfs.missing0) if not c] == [0], name


def test_root_bound_covers_the_seed():
    # the traversal tests b(pos) before it enters pos, the root included,
    # so b(0) must reach the seed value: the seeds are u-union initial
    # complexes, leaves of the search, and b(0) bounds every leaf
    for name, obj, _, inst in _instances(8):
        dfs = search._LayeredDFS(obj, inst, True)
        seed = search._Incumbent(obj, inst, dfs.space).value
        b0 = (dfs.counted.bit_count() + min(dfs.caps0[0], dfs.ends[0])
              + dfs.tail[0])
        assert b0 >= seed, (name, inst)


def test_layer_caps_are_layer_bound():
    # layer k of a u-union family is (2k - u)-intersecting, so its initial
    # cap is the complete intersection maximum, at most C(n, u - k); as
    # u < n, that is below C(n, k), the level's size
    for name, obj, _, inst in _instances(12):
        n, u = inst.n, inst.u
        caps0 = search._LayeredDFS(obj, inst, True).caps0
        assert caps0 == [complete_intersection_bound(n, k, 2 * k - u)
                         for k in inst.levels], name
        for c, k in zip(caps0, inst.levels):
            assert c <= layer_bound(n, 2 * k - u, u - k) < comb(n, k), (name, inst)


def _initial_families(n, k):
    """Every initial k-uniform family on [n], a down-set of the elementary
    moves j -> j - 1, as (member count, min |A & B| over its pairs, the
    bitset of its indices in `sets`).  `combinations` order lists every
    move's result first, so each down-set grows once, by its members in
    that order."""
    sets = [mask_of(c) for c in combinations(range(1, n + 1), k)]
    index = {m: i for i, m in enumerate(sets)}
    # bit b of m set and bit b - 1 clear, b >= 1: element b + 1 moves to b
    need = [sum(1 << index[m ^ 3 << b - 1] for b in range(1, n)
                if m >> b & 1 and not m >> b - 1 & 1) for m in sets]

    def grow(fam, members, meet):
        yield len(members), meet, fam
        for i in range(members[-1] + 1 if members else 0, len(sets)):
            if not need[i] & ~fam:
                m = sets[i]
                new_meet = min([meet] + [(m & sets[a]).bit_count() for a in members])
                yield from grow(fam | 1 << i, members + [i], new_meet)
    return sets, grow(0, [], k)


def _staircases(n, k):
    """The k-set staircases that fit in [n], with their walk caps: the gap
    sets (1..p, p+2, ..., 2k-p), p < k, and the skip sets (p, p+2, ...,
    p+2k-2), 3 <= p < k; the skip set p = 2 is the gap set p = 0."""
    stairs = [((*range(1, p + 1), *range(p + 2, 2 * k - p + 1, 2)), walk_gap_bound, p)
              for p in range(k)]
    stairs += [(range(p, p + 2 * k - 1, 2), walk_skip_bound, p) for p in range(3, k)]
    return [(mask_of(els), bound(n, k, p)) for els, bound, p in stairs if els[-1] <= n]


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_caps_hold_on_every_initial_family(n):
    # every prune rests on the layer cap: a t-intersecting initial k-uniform
    # family has at most the complete intersection maximum; and the paper's
    # random walk caps hold: one that misses a gap or skip staircase has at
    # most that staircase's walk cap
    seen = {}
    for k in range(1, n):
        sets, families = _initial_families(n, k)
        walk = [(sets.index(m), cap) for m, cap in _staircases(n, k)]
        seen[k] = 0
        for size, meet, fam in families:
            seen[k] += 1
            for i, cap in walk:
                assert fam >> i & 1 or size <= cap, (n, k, sets[i], fam)
            for t in range(1, meet + 1):
                assert size <= complete_intersection_bound(n, k, t), (n, k, t, fam)
        assert seen[k] > comb(n, k)        # at least every lex initial segment
    if n == 8:
        assert (seen[3], seen[4]) == (2431, 9304)


def test_diametral_cap():
    with pytest.raises(CapExceeded):
        diametral_overflow(SetFamily.from_masks(21, [1]), 2)


# -- maximize: spec instances ------------------------------------------------------

def test_max_union_5_2_unique_katona():
    cert = maximize("max_union_size", {"n": 5, "u": 2})
    assert cert.optimum == 6
    assert cert.witness == katona(5, 2)
    assert cert.maximizers == 1
    assert cert.proven_optimal and cert.reduction_used == "initial_complex"


def test_overflow_even_6_1():
    cert = maximize("overflow_even", {"n": 6, "d": 1})
    assert cert.optimum == 1 and cert.proven_optimal
    assert recheck(cert)


def test_upper_layers_8_4():
    cert = maximize("upper_layers", {"n": 8, "u": 4})
    assert cert.optimum == 28 and cert.maximizers == 1
    upper = at_least(cert.witness, 2)
    assert len(upper) == 28
    assert all(m.bit_count() == 2 for m in upper.members)


def test_max_diameter_5_2():
    cert = maximize("max_diameter_size", {"n": 5, "u": 2})
    assert cert.optimum == 6
    assert cert.reduction_used == "downshift_complex"
    assert diameter(cert.witness) <= 2


def test_diversity_5_2():
    cert = maximize("diversity", {"n": 5, "k": 2})
    assert cert.optimum == 1
    assert cert.witness == triangle(5, 2)
    assert cert.proven_optimal and cert.reduction_used == "none"


def test_overflow_odd_small_exhaustive():
    for n, d, want in ((4, 1, 2), (5, 1, 2)):
        cert = maximize("overflow_odd", {"n": n, "d": d})
        assert cert.optimum == want and cert.proven_optimal
        assert recheck(cert)


def test_overflow_odd_restricted_is_lower_bound():
    full = maximize("overflow_odd", {"n": 5, "d": 1})
    restricted = maximize(
        "overflow_odd", {"n": 5, "d": 1},
        SearchOptions(restrict_to_initial_complexes=True))
    assert not restricted.proven_optimal
    assert restricted.optimum <= full.optimum
    assert recheck(restricted)


def test_diametral_search_small():
    cert = maximize("diametral_overflow", {"n": 4, "u": 2})
    assert cert.proven_optimal
    assert recheck(cert)
    assert cert.optimum >= katona_overflow_of(b_family(4, 1), 2) - 0
    restricted = maximize(
        "diametral_overflow", {"n": 4, "u": 2},
        SearchOptions(restrict_to_initial_complexes=True))
    assert not restricted.proven_optimal
    assert restricted.optimum <= cert.optimum
    assert recheck(restricted)


# restricted runs of the objectives that default to the exhaustive engine: the
# layered engine's bound and leaf value for them are pinned exactly
RESTRICTED_PINS = [
    ("overflow_odd", {"n": 5, "d": 1}, 2, 1,
     [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]),
    ("overflow_odd", {"n": 7, "d": 2}, 10, 1,
     [[], [1], [2], [3], [4], [5], [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4],
      [1, 5], [2, 5], [3, 5], [4, 5], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
      [1, 2, 5], [1, 3, 5], [2, 3, 5], [1, 4, 5], [2, 4, 5], [3, 4, 5],
      [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5],
      [1, 2, 3, 4, 5]]),
    ("diversity", {"n": 7, "k": 2}, 1, 1, [[1, 2], [1, 3], [2, 3]]),
    ("diversity", {"n": 7, "k": 3}, 4, 2,
     [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5],
      [1, 4, 5], [2, 4, 5], [3, 4, 5]]),
    ("diametral_overflow", {"n": 5, "u": 2}, 1, 1, [[], [1], [2], [1, 2]]),
    ("diametral_overflow", {"n": 6, "u": 3}, 2, 1,
     [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]),
    # leaves that add uncounted free sets (sizes 0..d) to the members
    ("overflow_odd", {"n": 9, "d": 2}, 12, 1, g_family(9, 2).member_sets()),
    ("diametral_overflow", {"n": 8, "u": 5}, 10, 2, g_family(8, 2).member_sets()),
]

# nodes_explored of each pin, by (objective, n, second parameter)
RESTRICTED_NODES = {
    ("overflow_odd", 5, 1): 13, ("overflow_odd", 7, 2): 287,
    ("diversity", 7, 2): 15, ("diversity", 7, 3): 143,
    ("diametral_overflow", 5, 2): 3, ("diametral_overflow", 6, 3): 15,
    ("overflow_odd", 9, 2): 901, ("diametral_overflow", 8, 5): 523,
}


@pytest.mark.parametrize("objective,params,optimum,maximizers,witness",
                         RESTRICTED_PINS)
def test_restricted_results_pinned(objective, params, optimum, maximizers, witness):
    cert = maximize(objective, params,
                    SearchOptions(restrict_to_initial_complexes=True))
    assert cert.optimum == optimum and cert.maximizers == maximizers
    assert cert.nodes_explored == RESTRICTED_NODES[(objective, *params.values())]
    assert cert.witness == family_from_sets(params["n"], witness)
    assert not cert.proven_optimal and not cert.timed_out
    assert recheck(cert)


def test_layered_offers_the_evaluator_value(monkeypatch):
    # a leaf is offered with its count at the first anchor; on every leaf
    # that reaches the incumbent it equals `_min_outside`.  Both engines
    # offer a bitset over a space in canonical key order, and the witness
    # is the offered family of the optimum value with the smallest key
    offered = []
    offer = search._Incumbent.offer

    def spy(self, value, r):
        offered.append((value, [self.space[i] for i in search._bits(r)]))
        return offer(self, value, r)
    monkeypatch.setattr(search._Incumbent, "offer", spy)
    # the layered engine to n = 7; the exhaustive engine pruned to n = 6,
    # where (6,5) of the diameter objectives needs the time limit, and
    # unpruned, offering every maximal family, to n = 4
    runs = [(True, True, 7, None), (True, False, 7, None),
            (False, True, 6, 0.5), (False, False, 4, None)]
    total = {True: 0, False: 0}
    for restricted, pruning, max_n, time_limit in runs:
        options = SearchOptions(time_limit, restrict_to_initial_complexes=restricted,
                                use_pruning=pruning)
        for name, obj, params, inst in _instances(max_n):
            cert = maximize(name, params, options)
            for value, masks in offered:
                assert masks == sorted(masks, key=mask_key), (name, inst)
                assert value == search._min_outside(obj, inst, masks)[0], (name, inst)
            best = [masks for value, masks in offered if value == cert.optimum]
            if best:
                assert list(cert.witness.members) == min(
                    best, key=lambda masks: tuple(map(mask_key, masks))), (name, inst)
            total[restricted] += len(offered)
            offered.clear()
    assert total[True] > 500 and total[False] > 500


@pytest.mark.parametrize("n,d", [(7, 2), (8, 2), (8, 3)])
def test_odd_diametral_search_is_the_odd_overflow_search(n, d):
    # on initial complexes both count the members M with |M \ {1}| > d at
    # their first anchor, so the forced-restricted searches agree
    options = SearchOptions(time_limit=30, restrict_to_initial_complexes=True)
    odd = maximize("overflow_odd", {"n": n, "d": d}, options).to_json_dict()
    diam = maximize("diametral_overflow", {"n": n, "u": 2 * d + 1},
                    options).to_json_dict()
    for cert in (odd, diam):
        for key in ("objective", "params", "reduction", "elapsed_ms"):
            del cert[key]
    assert not odd["timed_out"] and odd == diam


# -- engine agreement and determinism ------------------------------------------------

AGREEMENT_CASES = [
    ("max_union_size", {"n": 4, "u": 2}), ("max_union_size", {"n": 4, "u": 3}),
    ("max_union_size", {"n": 5, "u": 2}), ("max_union_size", {"n": 5, "u": 3}),
    ("max_union_size", {"n": 5, "u": 4}),
    ("max_diameter_size", {"n": 4, "u": 2}), ("max_diameter_size", {"n": 4, "u": 3}),
    ("max_diameter_size", {"n": 5, "u": 3}),
    ("overflow_even", {"n": 6, "d": 1}), ("overflow_even", {"n": 6, "d": 2}),
    ("upper_layers", {"n": 5, "u": 4}), ("upper_layers", {"n": 5, "u": 3}),
]


@pytest.mark.parametrize("objective,params", AGREEMENT_CASES)
def test_restricted_matches_exhaustive(objective, params):
    restricted = maximize(objective, params)
    exhaustive = maximize(
        objective, params, SearchOptions(restrict_to_initial_complexes=False))
    assert restricted.optimum == exhaustive.optimum, (objective, params)
    assert restricted.proven_optimal and exhaustive.proven_optimal


def test_kleitman_consistency_small():
    for n in range(3, 6):
        for u in range(2, n):
            cert = maximize("max_diameter_size", {"n": n, "u": u})
            assert cert.optimum == katona_bound(n, u)


# default (layered) runs: optimum, maximizer count, witness and node count
LAYERED_PINS = [
    ("max_union_size", {"n": 6, "u": 4}, 22, 1, katona(6, 4), 7),
    ("overflow_even", {"n": 9, "d": 2}, 7, 1, b_family(9, 2), 19),
    ("upper_layers", {"n": 7, "u": 4}, 21, 1, katona(7, 4), 4),
    # two maximizers: the witness is the one with the smaller canonical key
    ("overflow_even", {"n": 11, "d": 3}, 36, 2, b_family(11, 3), 1535),
    # every free set counts, so including a member kills free sets
    ("max_union_size", {"n": 9, "u": 5}, 74, 1, katona(9, 5), 479),
    # the perfbench ladder rungs
    ("overflow_even", {"n": 12, "d": 3}, 45, 1, b_family(12, 3), 2495),
    ("overflow_even", {"n": 13, "d": 3}, 55, 1, b_family(13, 3), 4139),
    ("overflow_even", {"n": 14, "d": 3}, 66, 1, b_family(14, 3), 6979),
    ("max_union_size", {"n": 10, "u": 6}, 176, 1, katona(10, 6), 16),
    ("upper_layers", {"n": 11, "u": 5}, 45, 1, katona(11, 5), 1503),
    ("max_diameter_size", {"n": 10, "u": 6}, 176, 1, katona(10, 6), 16),
    # four constrained levels (4..7): a prune in a later level relies on
    # each finished level's count being within its cap
    ("upper_layers", {"n": 9, "u": 7}, 70, 1, d_odd5(9, 3), 210784),
]


# each row's id names its instance, not its node count, so a change that
# moves the search tree keeps the ids
@pytest.mark.parametrize("objective,params,optimum,maximizers,witness,nodes",
                         LAYERED_PINS, ids=[f"{o}-{'-'.join(map(str, p.values()))}"
                                            for o, p, *_ in LAYERED_PINS])
def test_layered_results_pinned(objective, params, optimum, maximizers, witness,
                                nodes):
    cert = maximize(objective, params)
    assert cert.optimum == optimum and cert.maximizers == maximizers
    assert cert.witness == witness
    assert cert.nodes_explored == nodes
    assert cert.proven_optimal and not cert.timed_out
    assert recheck(cert)


# unpruned layered runs: `prune` never cuts, so every node of the kernel's
# include/exclude walk is entered; optimum, maximizers, witness and nodes
UNPRUNED_PINS = [
    ("max_union_size", {"n": 8, "u": 5}, 58, 1, katona(8, 5), 523),
    ("upper_layers", {"n": 8, "u": 5}, 21, 2, katona(8, 5), 523),
]


@pytest.mark.parametrize("objective,params,optimum,maximizers,witness,nodes",
                         UNPRUNED_PINS)
def test_unpruned_results_pinned(objective, params, optimum, maximizers, witness,
                                 nodes):
    cert = maximize(objective, params, SearchOptions(use_pruning=False))
    assert cert.optimum == optimum and cert.maximizers == maximizers
    assert cert.witness == witness
    assert cert.nodes_explored == nodes
    assert cert.proven_optimal and not cert.timed_out
    assert recheck(cert)


# unrestricted (Bron-Kerbosch) runs: optimum, witness (hex masks) and the
# number of maximal families the unpruned engine offers
EXHAUSTIVE_PINS = [
    ("diversity", {"n": 7, "k": 3}, 5, 6127, "7 b 15 1a 1c 26 29 2c 31 32"),
    ("diversity", {"n": 8, "k": 3}, 5, 23936,
     "7 b d e 13 15 16 23 25 26 43 45 46 83 85 86"),
    ("diametral_overflow", {"n": 5, "u": 2}, 1, 192, "0 1 2 3"),
    ("diametral_overflow", {"n": 6, "u": 3}, 5, 10752, "0 2 c 14 18 e 16 1a"),
    ("overflow_odd", {"n": 6, "d": 2}, 10, 1024,
     "7 b d e 13 15 16 19 1a 1c f 17 1b 1d 1e 1f"),
    ("overflow_odd", {"n": 7, "d": 2}, 10, 6127,
     "7 b d e 13 15 16 19 1a 1c f 17 1b 1d 1e 1f"),
    ("overflow_even", {"n": 6, "d": 2}, 5, 30, "7 b d e f"),
    ("max_union_size", {"n": 5, "u": 3}, 10, 25, "0 1 2 4 8 10 3 5 9 11"),
]


@pytest.mark.parametrize("objective,params,optimum,nodes,witness", EXHAUSTIVE_PINS)
def test_exhaustive_results_pinned(objective, params, optimum, nodes, witness):
    cert = maximize(objective, params, SearchOptions(
        restrict_to_initial_complexes=False, use_pruning=False))
    assert cert.optimum == optimum and cert.nodes_explored == nodes
    assert cert.witness == SetFamily.from_masks(
        params["n"], [int(h, 16) for h in witness.split()])
    assert cert.proven_optimal and not cert.timed_out
    assert cert.maximizers is None and cert.reduction_used == "none"
    assert recheck(cert)


def test_search_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cert = maximize("overflow_even", {"n": 9, "d": 2})
        assert cert.proven_optimal
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_pruning_does_not_change_results():
    on = SearchOptions(restrict_to_initial_complexes=True)
    off = SearchOptions(restrict_to_initial_complexes=True, use_pruning=False)
    for objective, params in (
            ("max_union_size", {"n": 5, "u": 3}),
            ("overflow_even", {"n": 6, "d": 1}),
            ("upper_layers", {"n": 6, "u": 4}),
            ("overflow_odd", {"n": 7, "d": 2}),
            ("diversity", {"n": 7, "k": 3}),
            ("diametral_overflow", {"n": 6, "u": 3})):
        pruned = maximize(objective, params, on)
        free = maximize(objective, params, off)
        assert pruned.optimum == free.optimum
        assert pruned.maximizers == free.maximizers
        assert pruned.witness == free.witness
        assert pruned.nodes_explored <= free.nodes_explored


# the unpruned engine enumerates 915 052 maximal families of diameter <= 4
# in [6], and more at u = 5: several seconds to minutes each
UNPRUNED_TOO_SLOW = {(name, 6, u) for name in ("max_diameter_size", "diametral_overflow")
                     for u in (4, 5)}


def test_exhaustive_pruning_does_not_change_results():
    # both exhaustive bounds and the roots, on every objective and valid pair
    # with n <= 6 that the unpruned engine finishes in about a second, and
    # four at n = 7 or 8
    on = SearchOptions(restrict_to_initial_complexes=False)
    off = SearchOptions(restrict_to_initial_complexes=False, use_pruning=False)
    cases = [(name, (n, v)) for name in search.OBJECTIVES
             for n in range(1, 7) for v in range(1, n + 1)
             if (name, n, v) not in UNPRUNED_TOO_SLOW]
    cases += [("overflow_odd", (7, 2)), ("diversity", (7, 3)), ("diversity", (8, 3)),
              ("diametral_overflow", (7, 3))]
    runs = fewer = 0
    for objective, pair in cases:
        params = dict(zip(search.OBJECTIVES[objective].params, pair))
        try:
            pruned = maximize(objective, params, on)
        except ValueError:
            continue                    # not a valid parameter pair
        free = maximize(objective, params, off)
        assert pruned.optimum == free.optimum, (objective, params)
        assert pruned.witness == free.witness, (objective, params)
        assert pruned.proven_optimal and free.proven_optimal
        assert pruned.nodes_explored <= free.nodes_explored
        runs += 1
        fewer += pruned.nodes_explored < free.nodes_explored
    assert runs >= 50 and fewer


def _index_list(m):
    """The ascending indices of the bitset m, a family's key over a space in
    key order."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_key_below_is_the_order_of_the_index_lists():
    # lexicographic order, but a proper extension of w is below w too; a
    # searched family is never empty, so w = 0 stands for no witness yet,
    # above every nonempty family
    keys = [_index_list(m) for m in range(256)]
    for a in range(256):
        for w in range(256):
            extends = a != w and keys[a][:len(keys[w])] == keys[w]
            assert search._key_below(a, w) == (extends or keys[a] < keys[w]), (a, w)


@given(st.integers(0, 255), st.integers(0, 255))
def test_witness_bound_lemma(a, w):
    # the witness bound cuts a tie at a node whose families lie within a
    # when a is not below the witness w: then every F within a that is not
    # a proper subset of w, so every maximal F, has a key at least w's
    if not search._key_below(a, w):
        for f in range(256):
            if f & ~a == 0 and not (f & ~w == 0 and f != w):
                assert _index_list(f) >= _index_list(w), (a, w, f)


def _rooted_instances():
    """Every objective on the valid pairs among (6, 2) and (7, 3)."""
    for obj in search.OBJECTIVES.values():
        for pair in ((6, 2), (7, 3)):
            try:
                yield obj, search._instance(obj, dict(zip(obj.params, pair)))
            except ValueError:
                pass


@given(st.sampled_from(list(_rooted_instances())), st.data())
def test_roots_rest_on_a_symmetry(case, data):
    # the pruned exhaustive engine starts only at the roots, which is exact
    # when a symmetry keeps the relation and the value: a permutation of [n]
    # for the size roots, a translation M -> M ^ T for the empty-set root
    obj, inst = case
    n, u = inst.n, inst.u
    pool, _, _ = search._pool(obj, inst)
    if obj.roots is search._size_roots:
        perm = data.draw(st.permutations(range(n)))
        def g(m):
            return sum(1 << perm[x] for x in range(n) if m >> x & 1)
    else:
        assert list(obj.roots(pool)) == [0]
        t = data.draw(st.integers(0, (1 << n) - 1))
        def g(m):
            return m ^ t
    sample = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    assert {g(m) for m in pool} == set(pool)
    family = []
    for a in sample:
        for b in sample:
            assert _compatible(obj, u, g(a), g(b)) == _compatible(obj, u, a, b)
        if all(_compatible(obj, u, a, b) for b in family + [a]):
            family.append(a)
    image = sorted(map(g, family), key=mask_key)
    assert (search._min_outside(obj, inst, image)[0]
            == search._min_outside(obj, inst, family)[0])


def test_time_limit_yields_honest_lower_bound():
    cert = maximize("max_union_size", {"n": 7, "u": 6},
                    SearchOptions(time_limit=1e-9))
    assert cert.timed_out and not cert.proven_optimal
    assert cert.maximizers is None
    assert recheck(cert)
    assert cert.optimum >= len(katona(7, 6))  # the seed is already optimal here


def test_zero_time_limit_stops_after_setup():
    # the deadline is checked once the engine is built, before the first node
    cert = maximize("overflow_even", {"n": 9, "d": 2}, SearchOptions(time_limit=0))
    assert cert.timed_out and not cert.proven_optimal
    assert cert.maximizers is None and cert.nodes_explored == 0
    assert cert.witness == b_family(9, 2)   # the seed
    assert recheck(SearchCertificate.from_json_dict(cert.to_json_dict()))


def test_deadline_stops_the_search_mid_tree():
    # (12, 5) stays unproven after minutes of search, so a 0.3 s limit
    # stops the DFS after many nodes; the call still returns promptly with
    # a rechecked seed bound
    cert = maximize("overflow_even", {"n": 12, "d": 5}, SearchOptions(time_limit=0.3))
    assert cert.timed_out and not cert.proven_optimal
    assert cert.maximizers is None and cert.nodes_explored > 0
    assert cert.elapsed_ms < 2000
    assert recheck(cert)


def test_exhaustive_deadline_returns_its_stop():
    # the unrestricted engine checks the clock on entering each node and
    # returns once it has passed; (6, 5) is far from enumerated after 0.2 s
    def search(time_limit):
        return maximize("max_diameter_size", {"n": 6, "u": 5}, SearchOptions(
            restrict_to_initial_complexes=False, time_limit=time_limit))
    t0 = time.monotonic()
    cert = search(0.2)
    assert time.monotonic() - t0 < 1
    assert cert.reduction_used == "none"
    assert cert.timed_out and not cert.proven_optimal
    assert cert.maximizers is None and cert.optimum == 32
    assert recheck(cert)
    cert = search(0)
    assert cert.timed_out and cert.nodes_explored == 0


def test_seed_valuation_reads_one_center():
    # the b_family seed, an initial complex, is valued at the empty center,
    # not over 2^18 centers, so the whole search takes milliseconds
    t0 = time.monotonic()
    cert = maximize("diametral_overflow", {"n": 18, "u": 4},
                    SearchOptions(restrict_to_initial_complexes=True))
    assert time.monotonic() - t0 < 0.5
    assert (cert.optimum, cert.nodes_explored, cert.maximizers) == (16, 37, 1)
    assert not cert.timed_out and not cert.proven_optimal
    assert recheck(cert)


def test_search_validation():
    with pytest.raises(CapExceeded):
        maximize("max_union_size", {"n": 30, "u": 4})
    with pytest.raises(ValueError):
        maximize("max_union_size", {"n": 5, "u": 5})
    with pytest.raises(ValueError):
        maximize("overflow_even", {"n": 5, "d": 2})   # needs n >= 2d + 2
    with pytest.raises(ValueError):
        maximize("nonsense", {"n": 5})


def test_caps_refuse_before_the_seeds_are_built():
    # both engines count their candidates from binomials first: the seed of
    # (22, 21) alone has 2^21 members, and the pool of (20, 19) 2^20
    t0 = time.process_time()
    with pytest.raises(CapExceeded, match="layer candidates exceed"):
        maximize("max_union_size", {"n": 22, "u": 21})
    with pytest.raises(CapExceeded, match="exhaustive pool of 1048576 candidates"):
        maximize("diametral_overflow", {"n": 20, "u": 19})
    assert time.process_time() - t0 < 1


# -- certificates ----------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = maximize("overflow_even", {"n": 6, "d": 1})
    again = SearchCertificate.from_json_dict(cert.to_json_dict())
    assert again == cert
    assert recheck(again)
    assert SearchCertificate.from_json_dict(json.loads(cert.to_json())) == cert


def test_certificate_input_validation():
    good = maximize("overflow_even", {"n": 6, "d": 1}).to_json_dict()
    for key, bad in (("objective", "nonsense"), ("maximizers", "abc"),
                     ("maximizers", True), ("maximizers", 2.0), ("params", []),
                     ("params", {"n": 6, "d": "1"}),
                     ("optimum", None), ("optimum", [1]), ("optimum", 1.5),
                     ("optimum", True), ("optimum", "1.5"), ("optimum", " 1"),
                     ("nodes", None), ("nodes", [3]), ("nodes", True), ("nodes", 3.0),
                     ("elapsed_ms", None), ("elapsed_ms", "5"), ("elapsed_ms", False),
                     ("proven_optimal", "no"), ("proven_optimal", 1),
                     ("proven_optimal", None), ("timed_out", "no"), ("timed_out", 0),
                     ("reduction", None), ("reduction", 3)):
        with pytest.raises(ValueError):
            SearchCertificate.from_json_dict({**good, key: bad})
    assert SearchCertificate.from_json_dict({**good, "maximizers": None}).maximizers is None
    assert SearchCertificate.from_json_dict({**good, "optimum": 1}).optimum == 1
    assert SearchCertificate.from_json_dict({**good, "optimum": "-2"}).optimum == -2


def test_certificate_missing_field_names_it():
    good = maximize("overflow_even", {"n": 6, "d": 1}).to_json_dict()
    for key in ("objective", "params", "optimum", "witness", "proven_optimal",
                "reduction", "nodes", "elapsed_ms"):
        cert = dict(good)
        del cert[key]
        with pytest.raises(ValueError, match=repr(key)):
            SearchCertificate.from_json_dict(cert)


def test_search_options_validation():
    for time_limit in (-1, float("nan"), float("-inf")):
        with pytest.raises(ValueError):
            SearchOptions(time_limit=time_limit)
    assert SearchOptions(time_limit=float("inf")).time_limit == float("inf")
    for workers in (0, 2):
        with pytest.raises(ValueError):
            SearchOptions(workers=workers)
    assert SearchOptions(time_limit=0, workers=1).time_limit == 0


def _committed_certificate(objective, **params):
    """The committed certificate of objective at params, proven and rechecked."""
    name = "_".join([objective, *map(str, params.values())])
    path = Path(__file__).parent / "data" / f"{name}.json"
    cert = SearchCertificate.from_json_dict(json.loads(path.read_text()))
    assert (cert.objective, cert.params) == (objective, params)
    assert cert.proven_optimal and not cert.timed_out
    assert recheck(cert)
    return cert


def test_overflow_even_10_4_certificate():
    # the d = 4 rung, proven in 851 175 nodes: the base-[4] family is not
    # optimal there, the base-[6] rung is
    cert = _committed_certificate("overflow_even", n=10, d=4)
    assert cert.nodes_explored == 851_175
    assert cert.optimum == 95 > d_even_overflow(10, 4) == 81
    assert cert.optimum == near_base_overflow(10, 4, 3)


def test_overflow_even_11_4_certificate():
    # proven in 7 223 199 nodes; the witness is stored as hex masks.  The
    # optimum is the best near-base rung's overflow, the base-[6] rung's
    cert = _committed_certificate("overflow_even", n=11, d=4)
    assert cert.nodes_explored == 7_223_199
    assert cert.optimum == 117 == max(near_base_overflow(11, 4, s) for s in range(1, 5))


def test_max_union_size_9_8_certificate():
    # Katona's theorem at (9,8), proven in 638 247 nodes among 319 124
    # maximizers, the witness stored as hex masks: the smallest key among
    # them is the Katona family, the first 256 sets in key order
    cert = _committed_certificate("max_union_size", n=9, u=8)
    assert cert.optimum == 256 == katona_bound(9, 8)
    assert (cert.maximizers, cert.nodes_explored) == (319_124, 638_247)
    assert cert.witness.members == katona(9, 8).members


def test_recheck_rejects_tampering():
    cert = maximize("max_union_size", {"n": 5, "u": 2})
    worse_witness = dataclasses.replace(
        cert, witness=family_from_sets(5, [[1], [2]]))
    assert not recheck(worse_witness)
    inflated = dataclasses.replace(cert, optimum=cert.optimum + 1)
    assert not recheck(inflated)
    infeasible = dataclasses.replace(
        cert, witness=family_from_sets(5, [[1, 2], [3, 4], [1, 3]]),
        optimum=3)
    assert not recheck(infeasible)


def test_recheck_is_capped_by_the_evaluator_not_the_search():
    # maximize refuses n above SEARCH_CAP = 24, but a certificate above it
    # is rechecked up to its evaluator's cap
    cert = SearchCertificate(
        objective="max_union_size", params={"n": 30, "u": 4}, optimum=466,
        witness=katona(30, 4), proven_optimal=False, reduction_used="none",
        nodes_explored=0, elapsed_ms=0)
    assert recheck(cert)
    assert not recheck(dataclasses.replace(cert, optimum=467))
    with pytest.raises(CapExceeded, match="search needs n <= 24"):
        maximize("max_union_size", {"n": 25, "u": 4})
    # the one-anchor diametral count has no center enumeration to cap
    assert katona_overflow_of(katona(30, 4), 4) == 0


def test_recheck_of_a_large_diameter_witness():
    # katona(22, 10) has 35 443 members; only the pairs whose sizes sum
    # above u are compared
    fam = katona(22, 10)
    cert = SearchCertificate(
        objective="max_diameter_size", params={"n": 22, "u": 10},
        optimum=len(fam), witness=fam, proven_optimal=False,
        reduction_used="downshift_complex", nodes_explored=0, elapsed_ms=0)
    assert recheck(cert)
    assert not recheck(dataclasses.replace(cert, params={"n": 22, "u": 9}))


def test_certificate_grid_pinned(tmp_path):
    """The restricted certificate grid, `nodes` included, has the committed
    digest: a change that moves the layered search tree fails here.  The
    grid also passes `--oracle`, so a re-derived digest can only pin pruned
    records equal to their unpruned twins in every field but `nodes`."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "grid.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for mode in ("--out", "--oracle"):
        run = subprocess.run(
            [sys.executable, str(root / "scripts" / "certificate_grid.py"), mode, str(out)],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
    digest = (root / "tests" / "data" / "certificate_grid.sha256").read_text().split()[0]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_params_must_match_the_objective():
    # a missing or an extra parameter is refused by name, never a KeyError,
    # and never written into a certificate
    for params in ({"n": 8}, {"n": 8, "d": 2, "junk": 7}):
        with pytest.raises(ValueError, match="need the parameters n, d"):
            maximize("overflow_even", params)
    cert = maximize("overflow_even", {"n": 8, "d": 2})
    assert not recheck(dataclasses.replace(cert, params={"n": 8}))
    assert not recheck(dataclasses.replace(cert, params={"n": 8, "d": 2, "k": 3}))
    data = cert.to_json_dict()
    del data["params"]["d"]
    with pytest.raises(ValueError, match="need the parameters n, d"):
        SearchCertificate.from_json_dict(data)


def test_params_must_be_integers():
    # no value is converted: a float, a string or a bool is refused by name,
    # so nothing is certified under a truncated parameter
    for params, name in (({"n": 8.9, "d": "2"}, "n"), ({"n": True, "d": 2}, "n"),
                         ({"n": 8, "d": 2.0}, "d")):
        with pytest.raises(ValueError, match=f"parameter {name} must be an integer"):
            maximize("overflow_even", params)
    cert = maximize("overflow_even", {"n": 8, "d": 2})
    assert not recheck(dataclasses.replace(cert, params={"n": 8.9, "d": "2"}))


# -- compression verification ------------------------------------------------------------

def test_verify_hilton_small():
    rep = verify_hilton(4, 1, 2)
    assert rep.holds and rep.counterexample is None


def test_verify_hilton_cap():
    with pytest.raises(CapExceeded):
        verify_hilton(8, 3, 3)
    with pytest.raises(ValueError):
        verify_hilton(3, 2, 2)
