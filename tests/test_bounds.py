import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from katona import (
    SetFamily, at_least, binom, complete_intersection_bound, crossover_quintic,
    d2r_gap, d2r_upper_count, d_2r, d_even, d_even_gap, d_even_gap_closed_form,
    d_even_overflow, diversity_formula, ekr_bound, full_star, hm_bound,
    katona_bound, key_ratio_holds, layer_bound, layer_bound_refined, mask_of,
    near_base_overflow, overflow_bound, shadow_bound_check, sperner_cross_check,
    upper_layer_bound, walk_gap_bound, walk_skip_bound, family_from_sets,
)
from katona.constructions import _near_katona


def test_binom():
    assert binom(10, 1) == 10
    assert binom(8, 2) == 28
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_katona_bound_values():
    assert katona_bound(5, 2) == 6
    assert katona_bound(4, 3) == 8
    for n in range(3, 12):
        assert katona_bound(n, n - 1) == 1 << (n - 1)


def test_ekr_and_hm():
    assert ekr_bound(7, 3, 1) == comb(6, 2)
    assert hm_bound(7, 3) == 13
    assert hm_bound(7, 3) < ekr_bound(7, 3, 1)


def test_overflow_bound():
    rep = overflow_bound(6, 2)
    assert rep.value == 1 and rep.in_proved_regime
    rep = overflow_bound(12, 4)
    assert rep.value == 10 and rep.in_proved_regime
    assert not overflow_bound(11, 4).in_proved_regime
    rep = overflow_bound(80, 3)
    assert rep.value == 2 * comb(77, 0) and rep.in_proved_regime
    assert not overflow_bound(72, 3).in_proved_regime  # needs n > 36(d+1)


def test_upper_layer_bound():
    rep = upper_layer_bound(8, 4)
    assert rep.value == 28 and rep.in_proved_regime  # 8 >= 3.5*2 + 1
    assert not upper_layer_bound(7, 4).in_proved_regime
    rep = upper_layer_bound(9, 5)
    assert rep.value == comb(8, 2) and rep.in_proved_regime  # 9 > 4*2
    assert not upper_layer_bound(8, 5).in_proved_regime


def test_fractional_regime_uses_exact_arithmetic():
    # 3.5r + 1 with r = 2 is exactly 8; n = 8 is inside, n = 7 is not
    assert upper_layer_bound(8, 4).in_proved_regime
    assert not upper_layer_bound(7, 4).in_proved_regime


def test_diversity_formula():
    rep = diversity_formula(100, 2)
    assert rep.value == comb(97, 0) == 1 and rep.in_proved_regime
    assert not diversity_formula(72, 2).in_proved_regime
    assert diversity_formula(5, 2).value == 1


def test_walk_bounds():
    assert walk_gap_bound(6, 3, 0) == comb(6, 2) == 15
    assert walk_gap_bound(6, 3, 2) == comb(6, 0) == 1
    assert walk_skip_bound(8, 3, 2) == comb(8, 2) == 28
    # the skip staircase p = 2, (2, 4, ..., 2k), is the gap staircase p = 0
    # and its cap C(n, k) - C(n, k) + C(n, k - 1) is the gap cap
    for n in range(6, 21):
        for k in range(3, n // 2 + 1):
            assert walk_skip_bound(n, k, 2) == walk_gap_bound(n, k, 0), (n, k)
    with pytest.raises(ValueError):
        walk_gap_bound(6, 3, 3)
    with pytest.raises(ValueError):
        walk_skip_bound(6, 3, 1)


def test_walk_caps_example():
    # the 4-sets of [9]: the gap staircases (1..p, p+2, ..., 8-p), p < 4,
    # have caps C(9, 3-p), and the skip staircase (3, 5, 7, 9) has
    # C(9, 4) - C(8, 4) + C(8, 3) = 126 - 70 + 56
    assert [walk_gap_bound(9, 4, p) for p in range(4)] == [84, 36, 9, 1]
    assert walk_skip_bound(9, 4, 3) == 112
    # a staircase must fit in [n]: (2,4,6,8) and (3,5,7,9) drop out at n = 7,
    # and (1,3,5,7), (1,2,4,6) and (1,2,3,5) stay
    assert [walk_gap_bound(7, 4, p) for p in (1, 2, 3)] == [21, 7, 1]
    for bound, p in ((walk_gap_bound, 0), (walk_skip_bound, 3)):
        with pytest.raises(ValueError):
            bound(7, 4, p)


@pytest.mark.parametrize("bound,args,shown", [
    (overflow_bound, (1, 2), "u=2, n=1"),
    (upper_layer_bound, (0, 3), "u=3, n=0"),
    (diversity_formula, (2, 3), "n=2, k=3"),
    (walk_skip_bound, (1, 5, 4), "n=1, k=5, p=4"),
    (layer_bound_refined, (0, 1, 0), "n=0, t=1, ell=0"),
    (walk_gap_bound, (3, 3, 0), "n=3, k=3, p=0"),
])
def test_bounds_refuse_parameters_outside_their_statement(bound, args, shown):
    # each names the caller's values, not those of an inner binomial
    with pytest.raises(ValueError, match=shown):
        bound(*args)


def test_layer_bounds():
    assert layer_bound(9, 2, 3) == comb(9, 3)
    rep = layer_bound_refined(9, 2, 3)
    assert rep.value == comb(8, 3) and rep.in_proved_regime
    assert not layer_bound_refined(9, 2, 4).in_proved_regime


def _largest_t_intersecting(n, k, t):
    """The largest t-intersecting family of k-subsets of [n]: a maximum
    clique of the graph joining the k-sets that share t elements, by
    branch and bound on bitsets."""
    sets = [mask_of(c) for c in combinations(range(1, n + 1), k)]
    adj = [sum(1 << j for j, b in enumerate(sets) if j != i and (a & b).bit_count() >= t)
           for i, a in enumerate(sets)]
    best = 0

    def grow(size, cand):
        nonlocal best
        best = max(best, size)
        while cand and size + cand.bit_count() > best:
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            grow(size + 1, cand & adj[v])
    grow(0, (1 << len(sets)) - 1)
    return best


def test_complete_intersection_bound_is_the_largest_family():
    triples = [(n, k, t) for n in range(1, 8) for k in range(1, n + 1)
               for t in range(1, k + 1)]
    assert len(triples) == 84
    for n, k, t in triples:
        assert complete_intersection_bound(n, k, t) == _largest_t_intersecting(n, k, t), (
            n, k, t)


def test_complete_intersection_bound_regimes():
    for n in range(1, 31):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                value = complete_intersection_bound(n, k, t)
                # within the layer cap C(n, k - t) that every t-intersecting
                # k-family meets
                assert value <= layer_bound(n, t, k - t), (n, k, t)
                # the t-star is extremal from n = (t + 1)(k - t + 1) on
                if n >= (t + 1) * (k - t + 1):
                    assert value == comb(n - t, k - t), (n, k, t)
                # every two k-sets share 2k - n elements
                if 2 * k - n >= t:
                    assert value == comb(n, k), (n, k, t)
    # between the two: the r = 1 family {F : |F & [t + 2]| >= t + 1} wins
    assert complete_intersection_bound(10, 5, 2) == 66 > comb(8, 3)


def test_near_base_overflow_matches_enumeration():
    for n in range(2, 13):
        for d in range(1, n // 2 + 1):
            for s in range(1, d + 1):
                fam = _near_katona(n, 2 * d, s)
                assert near_base_overflow(n, d, s) == len(at_least(fam, d + 1)), (n, d, s)
            # s = 1 is the paper's C(n - 2, d - 1), s = 2 the base-[4] family
            assert near_base_overflow(n, d, 1) == comb(n - 2, d - 1)
            if d >= 2:
                assert near_base_overflow(n, d, 2) == d_even_overflow(n, d)
    assert [near_base_overflow(10, 4, s) for s in range(1, 5)] == [56, 81, 95, 93]


def test_refined_layer_bound_on_small_families():
    # inside its regime the refined cap holds for intersecting families
    from katona import layer
    from helpers import random_t_intersecting_family
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randrange(2, 9)
        t = rng.randrange(1, 4)
        fam = random_t_intersecting_family(rng, n, t, tries=30)
        for ell in range(0, (n - t - 1) // 2 + 1):
            rep = layer_bound_refined(n, t, ell)
            assert rep.in_proved_regime
            assert len(layer(fam, t + ell)) <= rep.value, (n, t, ell)


# -- the ratio inequality -------------------------------------------------------

def test_key_ratio_telescopes_at_a_b_one():
    rep = key_ratio_holds(10, 3, 1, 1)
    assert rep.holds and rep.lhs == rep.rhs == Fraction(28, 15)


def test_key_ratio_examples():
    assert key_ratio_holds(12, 4, 2, 1).holds


def test_key_ratio_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        key_ratio_holds(10, 3, 8, 1)    # n < r + a
    with pytest.raises(ValueError):
        key_ratio_holds(10, 3, 1, 3)    # r = b


def test_key_ratio_holds_where_the_termwise_argument_works():
    # every factor (n-r+b-a-j)/(r-j) really is >= (n-r+b-a)/r iff
    # n - r + b - a >= r, so the inequality is a theorem on that subgrid
    for n in range(2, 21):
        for a in range(1, 5):
            for b in range(1, 5):
                for r in range(b + 1, min(n, n - a + 1)):
                    if n - r + b - a >= r:
                        assert key_ratio_holds(n, r, a, b).holds, (n, r, a, b)


def test_key_ratio_fails_below_that_regime():
    # the stated hypotheses alone do not suffice: exact counterexample
    rep = key_ratio_holds(4, 3, 1, 2)
    assert not rep.holds
    assert rep.lhs == Fraction(1, 4) and rep.rhs == Fraction(1, 3)
    assert not key_ratio_holds(6, 3, 3, 2).holds  # even with r <= n/2


# -- sharpness families -----------------------------------------------------------

def test_d_even_values():
    assert d_even_overflow(10, 3) == 31
    assert d_even_gap(10, 3) == 3
    assert d_even_gap_closed_form(10, 3) == 3
    assert d_even_gap(14, 3) < 0


def test_d_even_gap_positive_below_threshold():
    for d in range(3, 7):
        n = 4 * d - 2
        gap = d_even_gap(n, d)
        assert gap > 0
        assert gap == d_even_gap_closed_form(n, d)


def test_d_even_closed_form_is_an_identity():
    for n in range(4, 16):
        for d in range(2, 8):
            assert d_even_gap(n, d) == d_even_gap_closed_form(n, d), (n, d)


def test_d_even_overflow_matches_enumeration():
    for n in range(4, 13):
        for d in range(2, n // 2 + 1):
            fam = d_even(n, d)
            assert d_even_overflow(n, d) == len(at_least(fam, d + 1)), (n, d)


def test_d2r_values():
    assert d2r_upper_count(12, 3) == 42
    assert d2r_gap(12, 3) == 42 - 220


def test_d2r_matches_enumeration():
    for n in range(6, 15):
        for r in range(3, n // 2 + 1):
            fam = d_2r(n, r)
            assert d2r_upper_count(n, r) == len(at_least(fam, r)), (n, r)
            assert fam.members and max(
                m.bit_count() for m in fam.members) <= r + 3


def test_quintic_signs():
    assert crossover_quintic(Fraction(11, 10)) == 1
    assert crossover_quintic(Fraction(13, 10)) == -1
    assert crossover_quintic(Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        crossover_quintic(Fraction(0))


# -- ratio checks on families ------------------------------------------------------

def test_sperner_cross_on_stars():
    star = full_star(5, 2, 1)
    rep = sperner_cross_check(star, star)
    assert rep.holds and rep.lhs == Fraction(4, 10) + Fraction(4, 10)


def test_bound_report_json_writes_fractions_as_str():
    rep = key_ratio_holds(4, 3, 1, 2).to_json_dict()
    assert rep["lhs"] == "1/4" and rep["rhs"] == "1/3"
    star = full_star(5, 2, 1)
    assert sperner_cross_check(star, star).to_json_dict()["rhs"] == "1"


def test_sperner_cross_rejects_non_uniform():
    with pytest.raises(ValueError):
        sperner_cross_check(
            family_from_sets(4, [[1], [1, 2]]), family_from_sets(4, [[1]]))


def test_shadow_bound_example():
    fam = family_from_sets(3, [[1, 2], [1, 3]])
    rep = shadow_bound_check(fam, 1)
    assert rep.holds and rep.lhs == 1 and rep.rhs == Fraction(2, 3)
    rep = shadow_bound_check(family_from_sets(4, []), 1)
    assert rep.holds and rep.lhs == rep.rhs == 0


def test_shadow_bound_random():
    rng = random.Random(31)
    from itertools import combinations
    for _ in range(200):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n + 1)
        pool = [mask_of(c) for c in combinations(range(1, n + 1), k)]
        fam = SetFamily.from_masks(
            n, rng.sample(pool, rng.randrange(1, len(pool) + 1)))
        assert shadow_bound_check(fam, rng.randrange(0, k)).holds


def test_cross_ratio_random_cross_intersecting_pairs():
    rng = random.Random(32)
    from itertools import combinations
    for _ in range(200):
        n = rng.randrange(3, 9)
        a = rng.randrange(1, n // 2 + 1)
        b = rng.randrange(1, n - a)
        pool_a = [mask_of(c) for c in combinations(range(1, n + 1), a)]
        rng.shuffle(pool_a)
        fam_a = pool_a[:rng.randrange(1, 5)]
        fam_b = [m for m in
                 (mask_of(c) for c in combinations(range(1, n + 1), b))
                 if all(m & o for o in fam_a)]
        rep = sperner_cross_check(
            SetFamily.from_masks(n, fam_a), SetFamily.from_masks(n, fam_b))
        assert rep.holds, (n, a, b)
