import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from katona import (
    CapExceeded, brute_hit_count, family_from_sets, family_walks_hit,
    full_star, hits_line, layer, make_initial, make_initial_pair, mask_of,
    reflection_count, walk_of_set, elements_of,
)
from helpers import random_t_intersecting_family, random_cross_pair


def test_walk_points_example():
    w = walk_of_set(mask_of((1, 2)), 4)
    assert w.points == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))


def test_walk_of_empty_set():
    w = walk_of_set(0, 3)
    assert w.end == (3, 0)


@given(st.integers(1, 10), st.data())
def test_walk_endpoint(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    k = mask.bit_count()
    assert walk_of_set(mask, n).end == (n - k, k)


def test_walk_rejects_out_of_range():
    with pytest.raises(ValueError):
        walk_of_set(1 << 4, 4)


def test_hits_line_examples():
    assert hits_line(0b1010, 4, 0)           # origin is on y = x
    assert hits_line(mask_of((2, 3)), 4, 1)  # reaches (1, 2)
    assert not hits_line(mask_of((2, 4)), 4, 1)


def test_hits_line_matches_walk_scan():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(0, 9)
        mask = rng.randrange(1 << n) if n else 0
        t = rng.randrange(-3, 4)
        scan = any(y == x + t for x, y in walk_of_set(mask, n).points)
        assert hits_line(mask, n, t) == scan


# -- reflection counting -----------------------------------------------------------

def test_reflection_trivial_line_through_origin():
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert reflection_count(n, k, 0, 0, 0) == comb(n, k)


def test_reflection_examples():
    assert reflection_count(4, 2, 1, 0, 0) == 4
    assert brute_hit_count(4, 2, 1, 0, 0) == 4
    # which four: trace the walks directly
    hitters = [c for c in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
               if hits_line(mask_of(c), 4, 1)]
    assert hitters == [(1, 2), (1, 3), (1, 4), (2, 3)]
    assert reflection_count(10, 4, 2, 1, 1) == comb(8, 1) == 8


def test_reflection_hypothesis_violations_raise():
    with pytest.raises(ValueError):
        reflection_count(6, 2, 1, 0, 2)   # start above the line
    with pytest.raises(ValueError):
        reflection_count(6, 5, 1, 0, 0)   # endpoint above the line
    with pytest.raises(ValueError):
        reflection_count(6, 2, 3, 1, 0)   # a + t > k


def test_brute_unreachable_is_zero():
    assert brute_hit_count(6, 2, 6, 0, 0) == 0
    assert brute_hit_count(4, 2, -5, 0, 0) == 0
    # no walk at all: more ups than steps, or a start past the end
    assert brute_hit_count(3, 4, 1, 0, 0) == 0
    assert brute_hit_count(4, 2, 1, 3, 2) == 0


def test_brute_cap():
    # 20 steps, C(20, 10) walks, still enumerate well under a second
    assert brute_hit_count(20, 10, 3, 0, 0) == reflection_count(20, 10, 3, 0, 0)
    for n, a, b in ((21, 0, 0), (23, 1, 1), (30, 0, 0)):
        with pytest.raises(CapExceeded):
            brute_hit_count(n, 10, 1, a, b)


def test_reflection_matches_brute_on_small_grid():
    for n in range(0, 10):
        for k in range(0, n + 1):
            for t in range(-3, 4):
                for a in range(0, 3):
                    for b in range(0, 3):
                        try:
                            expected = reflection_count(n, k, t, a, b)
                        except ValueError:
                            continue
                        assert expected == brute_hit_count(n, k, t, a, b), \
                            (n, k, t, a, b)


# -- family-level walk facts ---------------------------------------------------------

def test_full_star_walks_hit():
    for t in (1, 2, 3):
        fam = full_star(8, 4, t)
        assert family_walks_hit(fam, t)


def test_non_initial_family_can_miss():
    # {2,4} on [4] stays strictly below y = x + 1; {2,3} does hit, at its
    # final point, even though the family is not initial
    assert not family_walks_hit(family_from_sets(4, [[2, 4]]), 1)
    assert family_walks_hit(family_from_sets(3, [[2, 3]]), 1)


def test_initial_intersecting_families_hit_the_line():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randrange(2, 9)
        t = rng.randrange(1, min(4, n + 1))
        fam = random_t_intersecting_family(rng, n, t)
        initial, _ = make_initial(fam)
        assert family_walks_hit(initial, t)


def test_layer_caps_for_intersecting_families():
    # any t-intersecting family has at most C(n, ell) members of size t + ell
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 10)
        t = rng.randrange(1, 4)
        fam = random_t_intersecting_family(rng, n, t, tries=30)
        for ell in range(0, n - t + 1):
            assert len(layer(fam, t + ell)) <= comb(n, ell)


def test_member_prefix_surplus():
    # initial t-intersecting: every member meets [t + 2i] in >= t + i somewhere
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randrange(2, 9)
        t = rng.randrange(1, 4)
        fam, _ = make_initial(random_t_intersecting_family(rng, n, t))
        for m in fam.members:
            ok = False
            for i in range(0, n):
                prefix = (1 << min(t + 2 * i, 63)) - 1
                if (m & prefix).bit_count() >= t + i:
                    ok = True
                    break
            assert ok, (n, t, elements_of(m))


def test_cross_pair_prefix_sums():
    # initial cross-t-intersecting pairs: some s has |F∩[s]| + |G∩[s]| >= s + t
    rng = random.Random(25)
    for _ in range(150):
        n = rng.randrange(2, 8)
        t = rng.randrange(1, 3)
        fam_a, fam_b = random_cross_pair(rng, n, t)
        if not fam_a.members or not fam_b.members:
            continue
        fam_a, fam_b = make_initial_pair(fam_a, fam_b)
        for fm in fam_a.members:
            for gm in fam_b.members:
                ok = False
                for s in range(t, n + 1):
                    prefix = (1 << s) - 1
                    if (fm & prefix).bit_count() + (gm & prefix).bit_count() >= s + t:
                        ok = True
                        break
                assert ok, (n, t, elements_of(fm), elements_of(gm))
