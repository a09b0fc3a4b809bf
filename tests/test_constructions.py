import random
from itertools import combinations
from math import comb

import pytest

from katona import CapExceeded, constructions
from katona import (
    ConstructionSpec, at_least, b_family, ball, construct, d_2r,
    d_even, d_odd5, diameter, full_star, g_family,
    hilton_milner, hm_bound, is_complex, is_t_intersecting, is_u_union,
    katona, katona_bound, katona_star, katona_x, lex_rank,
    lex_segment, mask_of, triangle,
)


def members_intersection(fam):
    out = (1 << fam.n) - 1
    for m in fam.members:
        out &= m
    return out


# -- sizes against the closed forms ------------------------------------------

def test_katona_sizes_match_bound():
    for n in range(2, 13):
        for u in range(1, n):
            assert len(katona(n, u)) == katona_bound(n, u), (n, u)


def test_katona_small_examples():
    assert len(katona(5, 2)) == 6
    assert len(katona(5, 3)) == 10
    assert len(katona(4, 3)) == 8  # collapses to half the power set


def test_hilton_milner_size_formula():
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            assert len(hilton_milner(n, k)) == hm_bound(n, k), (n, k)


# -- defining predicates --------------------------------------------------------

def test_union_properties_of_constructions():
    for n in range(4, 11):
        for d in range(1, n // 2):
            assert is_u_union(katona(n, 2 * d), 2 * d)
            assert is_u_union(b_family(n, d), 2 * d)
            if d >= 2:
                assert is_u_union(d_even(n, d), 2 * d)
            if 2 * d + 1 < n:
                assert is_u_union(katona(n, 2 * d + 1), 2 * d + 1)
                assert is_u_union(katona_x(n, 2 * d + 1, (n + 1) // 2), 2 * d + 1)
                if n >= 3:
                    assert is_u_union(g_family(n, d), 2 * d + 1)
        if n >= 6:
            for r in range(3, n // 2 + 1):
                assert is_u_union(d_2r(n, r), 2 * r)
        if n >= 5:
            for r in range(2, (n - 1) // 2 + 1):
                assert is_u_union(d_odd5(n, r), 2 * r + 1)


def test_intersecting_constructions():
    for n in range(5, 11):
        for k in range(2, (n - 1) // 2 + 1):
            hm = hilton_milner(n, k)
            tr = triangle(n, k)
            assert is_t_intersecting(hm, 1)
            assert is_t_intersecting(tr, 1)
            assert members_intersection(hm) == 0
            assert members_intersection(tr) == 0
        for k in range(1, n):
            for t in range(1, k + 1):
                assert is_t_intersecting(full_star(n, k, t), t)


def test_full_star_size():
    assert len(full_star(7, 3, 1)) == comb(6, 2)
    assert full_star(5, 2, 2).member_sets() == ((1, 2),)


# -- near-extremal and overflow families ------------------------------------------

def test_katona_star_differs_by_one_and_stays_union():
    for n in range(3, 9):
        for u in range(1, n):
            star = katona_star(n, u)
            base = katona(n, u)
            assert len(set(star.members) - set(base.members)) == 1, (n, u)
            assert is_u_union(star, u), (n, u)


def test_b_family_overflow_layer():
    b = b_family(6, 2)
    over = at_least(b, 3)
    assert len(over) == comb(4, 1) == 4
    assert over == full_star(6, 3, 2)
    assert is_complex(b)


def test_g_family_overflow_value():
    # members outside the anchored odd family, for every anchor in [3]
    for n in range(5, 13):
        for d in range(1, (n - 2) // 2):
            g = g_family(n, d)
            expected = 2 * comb(n - 3, d - 1)
            for x in (1, 2, 3):
                kx = set(katona_x(n, 2 * d + 1, x).members)
                assert sum(1 for m in g.members if m not in kx) == expected


def test_g_family_two_alias_forms_agree():
    # |G \ [3]| <= d-1 is the same as |G ∩ [4, n]| <= d-1
    g = g_family(8, 2)
    low = mask_of((1, 2, 3))
    for m in range(1 << 8):
        assert ((m & ~low).bit_count() <= 1) == (m in set(g.members))


def test_ball_properties():
    assert ball(3, (1,), 2).member_sets() == ((), (1,), (1, 2), (1, 3))
    rng = random.Random(3)
    for n in range(3, 8):
        for u in range(1, n):
            for _ in range(4):
                center = tuple(
                    e for e in range(1, n + 1) if rng.random() < 0.5)
                b = ball(n, center, u)
                assert len(b) == len(katona(n, u))
                assert diameter(b) == u


# -- the near-Katona ladder and the member cap -------------------------------------

def test_near_katona_ladder():
    # N_s(n, u) = {S : |S \ [2s + h]| <= d - s} is u-union, and the named
    # families are its rungs
    for n in range(1, 10):
        for u in range(1, n):
            d, h = divmod(u, 2)
            for s in range(d + 1):
                if n < 2 * s + h:
                    continue
                base = mask_of(range(1, 2 * s + h + 1))
                rung = constructions._near_katona(n, u, s)
                assert set(rung.members) == {
                    m for m in range(1 << n) if (m & ~base).bit_count() <= d - s}
                assert is_u_union(rung, u), (n, u, s)
            assert katona(n, u) == constructions._near_katona(n, u, 0)
    rungs = ((b_family, 0, 1), (g_family, 1, 1), (d_even, 0, 2), (d_odd5, 1, 2),
             (d_2r, 0, 3))
    for fam, h, s in rungs:
        for n in range(2 * s + h, 11):
            for d in range(s, 6):
                assert fam(n, d) == constructions._near_katona(n, 2 * d + h, s)


# the constructions whose member count is checked, with valid parameters;
# katona_star is checked through the katona family it edits
CAPPED = (
    (katona, lambda n: [(n, u) for u in range(1, n)]),
    (katona_x, lambda n: [(n, u, x) for u in range(1, n, 2) for x in (1, n)]),
    (ball, lambda n: [(n, (1, n), u) for u in range(1, n)]),
    (b_family, lambda n: [(n, d) for d in range(1, n)] if n >= 2 else []),
    (d_odd5, lambda n: [(n, r) for r in range(2, n)] if n >= 5 else []),
    (full_star, lambda n: [(n, k, t) for k in range(1, n) for t in range(1, k + 1)]),
    (hilton_milner, lambda n: [(n, k) for k in range(1, (n + 1) // 2)]),
    (triangle, lambda n: [(n, k) for k in range(0, (n + 1) // 2)]),
    (lex_segment, lambda n: [(n, k, comb(n, k) // 2) for k in range(n + 1)]),
)


def test_member_cap_counts_exactly(monkeypatch):
    # each closed-form count is the family's size: a cap at the size builds
    # the family, a cap one below refuses it
    for fam, grid in CAPPED:
        for n in range(0, 10):
            for args in grid(n):
                size = len(fam(*args))
                monkeypatch.setattr(constructions, "MEMBER_CAP", size)
                assert len(fam(*args)) == size
                if size:
                    monkeypatch.setattr(constructions, "MEMBER_CAP", size - 1)
                    with pytest.raises(CapExceeded, match=f"^{size} members exceed"):
                        fam(*args)
                monkeypatch.undo()


def test_member_cap_refuses_huge_families_at_once():
    for fam, args in ((katona, (40, 38)), (triangle, (63, 30)), (full_star, (63, 30, 1)),
                      (hilton_milner, (63, 30)), (ball, (40, (1,), 38)),
                      (lex_segment, (63, 30, constructions.MEMBER_CAP + 1))):
        with pytest.raises(CapExceeded, match="members exceed the cap"):
            fam(*args)


# -- lexicographic order ------------------------------------------------------------

def test_lex_segment_examples():
    assert lex_segment(4, 2, 3).member_sets() == ((1, 2), (1, 3), (1, 4))
    assert len(lex_segment(5, 2, 0)) == 0
    with pytest.raises(ValueError):
        lex_segment(4, 2, 7)


def test_lex_rank_examples():
    assert lex_rank(4, 2, mask_of((1, 2))) == 0
    assert lex_rank(4, 2, mask_of((3, 4))) == 5
    with pytest.raises(ValueError):
        lex_rank(4, 2, mask_of((1, 2, 3)))


def test_lex_rank_inverts_segment():
    for n in range(1, 7):
        for k in range(0, n + 1):
            sets_in_order = [mask_of(c) for c in combinations(range(1, n + 1), k)]
            for r, m in enumerate(sets_in_order):
                assert lex_rank(n, k, m) == r
            for cut in range(len(sets_in_order) + 1):
                seg = set(lex_segment(n, k, cut).members)
                assert seg == {m for m in sets_in_order if lex_rank(n, k, m) < cut}


def test_lex_first_pair_example():
    # (1,7) precedes (2,3) in this order
    assert lex_rank(7, 2, mask_of((1, 7))) < lex_rank(7, 2, mask_of((2, 3)))


# -- dispatch -----------------------------------------------------------------------

def test_construct_dispatch():
    spec = ConstructionSpec("katona", {"n": 5, "u": 2})
    assert construct(spec) == katona(5, 2)
    spec = ConstructionSpec("ball", {"n": 4, "u": 2}, center=(1, 2))
    assert construct(spec) == ball(4, (1, 2), 2)
    with pytest.raises(ValueError):
        construct(ConstructionSpec("nope", {}))


def test_parameter_validation():
    with pytest.raises(ValueError):
        katona(5, 5)
    with pytest.raises(ValueError):
        katona_x(6, 4, 1)     # even u
    with pytest.raises(ValueError):
        full_star(4, 4, 1)
    with pytest.raises(ValueError):
        hilton_milner(6, 3)   # needs n > 2k
    with pytest.raises(ValueError):
        d_even(10, 1)
    with pytest.raises(ValueError):
        d_2r(10, 2)
    with pytest.raises(ValueError):
        d_odd5(10, 1)
    with pytest.raises(ValueError):
        g_family(2, 1)
    with pytest.raises(ValueError):
        ball(4, (5,), 2)
