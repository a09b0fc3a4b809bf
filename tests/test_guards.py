"""Each public function refuses parameters outside its range with an error
that names the values it was given."""

import pytest

from katona import (
    CapExceeded, ConstructionSpec, SearchCertificate, SetFamily, at_least,
    avoid, ball, complete_intersection_bound, construct, d2r_upper_count,
    d_even_gap_closed_form, d_even_overflow, diametral_overflow, ekr_bound,
    family_from_sets, hits_line, hm_bound, is_cross_t_intersecting, is_t_intersecting,
    is_u_union, katona, katona_bound, katona_overflow_of, katona_star, katona_x,
    key_ratio_holds, layer, layer_bound, lex_rank, lex_segment,
    make_initial_pair, maximize, near_base_overflow, overflow_even_of,
    overflow_odd_of, reflection_count, shadow, shadow_bound_check,
    sperner_cross_check, trace, triangle, walk_of_set,
)
from katona.core import family_to_json_dict

PAIRS = family_from_sets(4, [[1, 2], [3, 4]])


@pytest.mark.parametrize("call, error, names", [
    # closed-form bounds
    (lambda: katona_bound(4, 4), ValueError, ["u=4", "n=4"]),
    (lambda: ekr_bound(5, 2, 3), ValueError, ["n=5", "k=2", "t=3"]),
    (lambda: hm_bound(4, 2), ValueError, ["n=4", "k=2"]),
    (lambda: layer_bound(5, 0, 1), ValueError, ["t=0", "ell=1"]),
    (lambda: key_ratio_holds(5, 3, 0, 1), ValueError, ["n=5", "r=3", "a=0", "b=1"]),
    (lambda: d_even_overflow(8, 1), ValueError, ["d=1", "n=8"]),
    (lambda: d_even_gap_closed_form(3, 2), ValueError, ["d=2", "n=3"]),
    (lambda: d2r_upper_count(8, 2), ValueError, ["r=2", "n=8"]),
    (lambda: sperner_cross_check(PAIRS, katona(5, 2)), ValueError, ["4 vs 5"]),
    (lambda: shadow_bound_check(PAIRS, 2), ValueError, ["ell=2", "k=2"]),
    # set-level operators and the family JSON form
    (lambda: layer(PAIRS, 5), ValueError, ["layer 5", "[0, 4]"]),
    (lambda: at_least(PAIRS, -1), ValueError, ["layer -1", "[0, 4]"]),
    (lambda: shadow(PAIRS, 3), ValueError, ["level 3", "< 2"]),
    (lambda: avoid(PAIRS, 5), ValueError, ["element 5", "[1, 4]"]),
    (lambda: trace(PAIRS, [1, 2], [2, 3]), ValueError, ["P (1, 2)", "Q (2, 3)"]),
    (lambda: trace(PAIRS, [1], [1, 5]), ValueError, ["Q (1, 5)", "[1, 4]"]),
    (lambda: family_to_json_dict(PAIRS, "bits"), ValueError, ["'bits'"]),
    # constructions
    (lambda: katona_x(8, 4, 1), ValueError, ["odd u", "got 4"]),
    (lambda: katona_x(8, 3, 9), ValueError, ["anchor 9", "[1, 8]"]),
    (lambda: katona_star(4, 4), ValueError, ["u=4", "n=4"]),
    (lambda: triangle(6, 3), ValueError, ["n=6", "k=3"]),
    (lambda: ball(4, (), 4), ValueError, ["u=4", "n=4"]),
    (lambda: ball(4, (5,), 2), ValueError, ["center (5,)", "[1, 4]"]),
    (lambda: lex_segment(4, 5, 0), ValueError, ["k=5", "n=4"]),
    (lambda: lex_segment(4, 2, 7), ValueError, ["length 7", "C(4,2)"]),
    (lambda: lex_rank(4, 2, 0b111), ValueError, ["2-set", "size 3"]),
    (lambda: lex_rank(4, 2, 0b10001), ValueError, ["(1, 5)", "[1, 4]"]),
    (lambda: construct(ConstructionSpec("katona", {"n": 6})), ValueError,
     ["katona needs u"]),
    # the reflection count's hypotheses
    (lambda: reflection_count(4, 5, 1, 0, 0), ValueError, ["k=5", "n=4"]),
    (lambda: reflection_count(4, 2, 1, -1, 0), ValueError, ["(-1, 0)"]),
    (lambda: reflection_count(4, 2, 1, 3, 0), ValueError, ["(3, 0)", "(2, 2)"]),
    (lambda: reflection_count(6, 3, 1, 0, 2), ValueError, ["(0, 2)", "y = x + 1"]),
    (lambda: reflection_count(6, 5, 1, 0, 0), ValueError, ["(1, 5)", "y = x + 1"]),
    (lambda: reflection_count(6, 2, 1, 2, 0), ValueError, ["a=2", "t=1", "k=2"]),
    # the public evaluators, the search's cap and the paired shift
    (lambda: overflow_even_of(PAIRS, 0), ValueError, ["d >= 1, got 0"]),
    (lambda: overflow_odd_of(PAIRS, 0), ValueError, ["d >= 1, got 0"]),
    (lambda: diametral_overflow(PAIRS, 0), ValueError, ["u >= 1, got 0"]),
    (lambda: katona_overflow_of(PAIRS, 0), ValueError, ["u >= 1, got 0"]),
    (lambda: maximize("diametral_overflow", {"n": 21, "u": 4}), CapExceeded,
     ["n <= 20", "got 21"]),
    (lambda: make_initial_pair(PAIRS, SetFamily(5, ())), ValueError, ["4 vs 5"]),
    # the ground set and the predicates, a construction, the search's
    # ground set and the certificate form (appended, so the cases above
    # keep their ids)
    (lambda: SetFamily.from_masks(-1, []), ValueError, ["nonnegative, got -1"]),
    (lambda: is_t_intersecting(PAIRS, 0), ValueError, ["positive, got 0"]),
    (lambda: is_cross_t_intersecting(PAIRS, PAIRS, 0), ValueError,
     ["positive, got 0"]),
    (lambda: is_u_union(PAIRS, -1), ValueError, ["nonnegative, got -1"]),
    (lambda: katona_x(3, 5, 1), ValueError, ["u=5", "n=3"]),
    (lambda: maximize("overflow_even", {"n": 0, "d": 1}), ValueError,
     ["n >= 1, got 0"]),
    (lambda: SearchCertificate.from_json_dict([]), ValueError, ["JSON object"]),
    (lambda: complete_intersection_bound(5, 2, 3), ValueError, ["n=5", "k=2", "t=3"]),
    (lambda: complete_intersection_bound(3, 4, 1), ValueError, ["n=3", "k=4", "t=1"]),
    (lambda: near_base_overflow(8, 2, 3), ValueError, ["d=2", "s=3"]),
    (lambda: near_base_overflow(3, 2, 2), ValueError, ["n=3", "s=2"]),
    # a walk's set must be a subset of [1, n]
    (lambda: hits_line(0b100, 2, 1), ValueError, ["0x4", "[1, 2]"]),
    (lambda: hits_line(-1, 3, 2), ValueError, ["-0x1", "[1, 3]"]),
    (lambda: walk_of_set(-1, 3), ValueError, ["-0x1", "[1, 3]"]),
])
def test_guard_names_the_values(call, error, names):
    with pytest.raises(error) as info:
        call()
    for name in names:
        assert name in str(info.value), (name, str(info.value))
