import json
import random

import pytest
from hypothesis import given, strategies as st

from katona import (
    CapExceeded, SetFamily, at_least, avoid, b_family, complement_family,
    diameter, down_closure, elements_of, family_from_json, family_from_sets,
    family_to_json, full_star, is_complex, is_cross_t_intersecting,
    is_t_intersecting, is_u_union, katona, layer, mask_of, shadow, trace,
)
from katona.core import is_diameter_at_most, mask_key
from helpers import random_family, random_u_union_family


@st.composite
def families(draw, max_n=6, max_members=10):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_members))
    return SetFamily.from_masks(n, masks)


# -- construction and canonicity ---------------------------------------------

def test_family_from_sets_dedups():
    fam = family_from_sets(3, [[1, 2], [2, 1]])
    assert fam.member_sets() == ((1, 2),)


def test_empty_family():
    assert len(family_from_sets(3, [])) == 0


def test_canonical_order():
    fam = family_from_sets(5, [[1], [2], [1, 2]])
    assert fam.member_sets() == ((1,), (2,), (1, 2))
    assert 0b11 in fam and 0b100 not in fam


def test_element_out_of_range():
    with pytest.raises(ValueError):
        family_from_sets(3, [[4]])
    with pytest.raises(ValueError):
        family_from_sets(3, [[0]])


def test_elements_of_refuses_a_negative_mask():
    assert elements_of(0b1011) == (1, 2, 4) and elements_of(0) == ()
    for mask in (-1, -2, -(1 << 70)):
        with pytest.raises(ValueError):
            elements_of(mask)


def _bit_elements(mask):
    """The definition: e is an element iff bit e - 1 of the mask is set."""
    return tuple(e for e in range(1, mask.bit_length() + 1) if mask >> (e - 1) & 1)


@given(st.one_of(st.just(0), st.integers(0, (1 << 63) - 1), st.integers(0, 1 << 200)))
def test_elements_of_matches_the_bit_definition(mask):
    assert elements_of(mask) == _bit_elements(mask)
    assert mask_of(elements_of(mask)) == mask


@given(st.data())
def test_from_masks_is_the_mask_key_sort_of_the_distinct_masks(data):
    n = data.draw(st.integers(0, 63))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    masks += masks[::2]                 # duplicates in any input order
    fam = SetFamily.from_masks(n, masks)
    assert fam.members == tuple(sorted(set(masks), key=mask_key))
    assert fam.member_sets() == tuple(map(_bit_elements, fam.members))


def test_range_errors_name_the_first_bad_item_in_input_order():
    # a min over the masks would name -0x5
    with pytest.raises(ValueError, match=r"^mask 0x1000 has elements outside \[1, 8\]$"):
        SetFamily.from_masks(8, [3, 1 << 12, -5])
    with pytest.raises(ValueError, match=r"^mask -0x5 has elements outside \[1, 8\]$"):
        SetFamily.from_masks(8, [3, -5, 1 << 12])
    with pytest.raises(ValueError, match=r"^mask 0x100 has elements outside \[1, 8\]$"):
        SetFamily.from_masks(8, iter([1 << 8, 1 << 9]))
    with pytest.raises(ValueError, match=r"^element 9 outside ground set \[1, 8\]$"):
        family_from_sets(8, [[1, 2], [3, 9], [0]])
    with pytest.raises(ValueError, match=r"^element 0 outside ground set \[1, 8\]$"):
        family_from_sets(8, [(e for e in (2, 0)), [9]])


def test_ground_set_cap():
    with pytest.raises(CapExceeded):
        family_from_sets(64, [])


@given(families(), st.randoms())
def test_canonicity_input_order_irrelevant(fam, rng):
    sets = list(fam.member_sets())
    rng.shuffle(sets)
    assert family_from_sets(fam.n, sets) == fam


# -- predicates ---------------------------------------------------------------

def test_triangle_is_intersecting():
    fam = family_from_sets(5, [[1, 2], [1, 3], [2, 3]])
    assert is_t_intersecting(fam, 1)
    assert not is_t_intersecting(fam, 2)


def test_b_family_layer_is_2_intersecting():
    # every member of the (d+1)-layer contains [2], checked by enumeration
    lay = layer(b_family(6, 2), 3)
    assert lay == full_star(6, 3, 2)
    assert is_t_intersecting(lay, 2)


def test_intersecting_vacuous_and_singleton():
    assert is_t_intersecting(family_from_sets(4, []), 3)
    assert is_t_intersecting(family_from_sets(4, [[1, 2]]), 2)
    assert not is_t_intersecting(family_from_sets(4, [[1, 2]]), 3)


def test_u_union_examples():
    assert is_u_union(katona(6, 4), 4)
    assert not is_u_union(family_from_sets(5, [[1, 2, 3], [3, 4, 5]]), 4)
    assert is_u_union(family_from_sets(3, [[]]), 0)


def test_u_union_matches_pairwise_check():
    # every pair, each member with itself included, against the size-grouped
    # check; a directly built SetFamily may hold its members in any order
    rng = random.Random(45)
    for _ in range(400):
        n = rng.randrange(1, 8)
        u = rng.randrange(0, n + 1)
        if rng.random() < 0.5:
            fam = random_u_union_family(rng, n, u + rng.randrange(2))
        else:
            fam = random_family(rng, n, 10)
        masks = list(fam.members)
        rng.shuffle(masks)
        for f in (fam, SetFamily(n, tuple(masks))):
            expected = all((a | b).bit_count() <= u for a in masks for b in masks)
            assert is_u_union(f, u) == expected, (f, u)


def test_cross_intersecting():
    b = b_family(6, 2)
    assert is_cross_t_intersecting(layer(b, 3), layer(b, 3), 2)
    assert not is_cross_t_intersecting(
        family_from_sets(3, [[1]]), family_from_sets(3, [[2]]), 1)
    assert is_cross_t_intersecting(
        family_from_sets(3, []), family_from_sets(3, [[2]]), 1)
    with pytest.raises(ValueError):
        is_cross_t_intersecting(
            family_from_sets(3, []), family_from_sets(4, []), 1)


# -- operators ----------------------------------------------------------------

def test_complement():
    assert complement_family(
        family_from_sets(3, [[1]])).member_sets() == ((2, 3),)


def test_complement_of_katona():
    comp = complement_family(katona(5, 2))
    assert all(m.bit_count() >= 4 for m in comp.members)
    assert len(comp) == 6


@given(families())
def test_complement_involution(fam):
    assert complement_family(complement_family(fam)) == fam


@given(families(max_n=5))
def test_duality_intersecting_vs_union(fam):
    comp = complement_family(fam)
    for t in range(1, fam.n):
        assert is_t_intersecting(fam, t) == is_u_union(comp, fam.n - t)


def test_duality_exhaustive_n3():
    all_masks = list(range(8))
    for bits in range(1 << 8):
        fam = SetFamily.from_masks(3, [all_masks[i] for i in range(8) if bits >> i & 1])
        comp = complement_family(fam)
        for t in (1, 2):
            assert is_t_intersecting(fam, t) == is_u_union(comp, 3 - t)


def test_layers():
    k = katona(5, 2)
    assert len(layer(k, 1)) == 5
    assert len(at_least(k, 3)) == 0
    assert layer(k, 0).member_sets() == ((),)


def test_down_closure():
    fam = down_closure(family_from_sets(4, [[1, 2]]))
    assert fam.member_sets() == ((), (1,), (2,), (1, 2))
    assert is_complex(fam)
    assert down_closure(fam) == fam


@given(families(max_n=5))
def test_down_closure_preserves_union_property(fam):
    u = max((m.bit_count() for m in fam.members), default=0)
    for uu in range(u, fam.n + 1):
        if is_u_union(fam, uu):
            assert is_u_union(down_closure(fam), uu)


def test_shadow():
    fam = family_from_sets(3, [[1, 2], [1, 3]])
    assert shadow(fam, 1).member_sets() == ((1,), (2,), (3,))
    single = family_from_sets(6, [[1, 3, 5, 6]])
    assert len(shadow(single, 2)) == 6
    assert shadow(family_from_sets(4, []), 2) == family_from_sets(4, [])
    with pytest.raises(ValueError):
        shadow(family_from_sets(3, [[1], [1, 2]]), 1)


def test_diameter():
    assert diameter(family_from_sets(4, [[], [1, 2, 3]])) == 3
    assert diameter(family_from_sets(4, [])) == 0
    assert diameter(family_from_sets(4, [[1, 2]])) == 0


def test_diameter_of_complex_is_max_union():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 7)
        fam = down_closure(random_family(rng, n, 6))
        if not fam.members:
            continue
        max_union = max(
            (a | b).bit_count() for a in fam.members for b in fam.members)
        assert diameter(fam) == max_union


def test_diameter_predicate_matches_the_maximum():
    # every u, including those below a member's size, on seeded families
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(1, 9)
        fam = random_family(rng, n, 10)
        for u in range(n + 1):
            assert is_diameter_at_most(fam, u) == (diameter(fam) <= u)
    with pytest.raises(ValueError):
        is_diameter_at_most(family_from_sets(3, []), -1)


def test_avoid_and_trace():
    tri = family_from_sets(5, [[1, 2], [1, 3], [2, 3]])
    assert avoid(tri, 1).member_sets() == ((2, 3),)
    got = trace(family_from_sets(3, [[1, 3]]), [1], [1, 2])
    assert got.member_sets() == ((3,),)
    # a member whose intersection with Q exceeds P is filtered out
    assert trace(family_from_sets(3, [[1, 2, 3]]), [1], [1, 2]).members == ()
    with pytest.raises(ValueError):
        trace(tri, [4], [1, 2])


def test_trace_with_p_equal_q():
    fam = family_from_sets(4, [[1, 2], [1, 3], [2, 4]])
    got = trace(fam, [1], [1])
    assert got.member_sets() == ((2,), (3,))


# -- layer facts for union-bounded families ------------------------------------

def test_layer_intersection_facts():
    rng = random.Random(100)
    for _ in range(120):
        n = rng.randrange(2, 8)
        u = rng.randrange(1, n)
        fam = random_u_union_family(rng, n, u)
        d, h = u // 2, u % 2
        for i in range(1, u - d + 1):
            if d + i > n:
                continue
            li = layer(fam, d + i)
            if not li.members:
                continue
            t = 2 * i - h
            if t >= 1:
                assert is_t_intersecting(li, t), (n, u, i)
            for j in range(i, u - d + 1):
                if d + j > n:
                    continue
                lj = layer(fam, d + j)
                tc = i + j - h
                if lj.members and tc >= 1:
                    assert is_cross_t_intersecting(li, lj, tc), (n, u, i, j)


# -- JSON ----------------------------------------------------------------------

def test_json_round_trip_both_forms():
    fam = family_from_sets(6, [[1, 2], [3], [], [4, 5, 6]])
    assert family_from_json(family_to_json(fam)) == fam
    assert family_from_json(family_to_json(fam, form="hex")) == fam


@given(families(max_n=63, max_members=30))
def test_json_round_trips_both_forms_up_to_the_cap(fam):
    for form in ("sets", "hex"):
        assert family_from_json(family_to_json(fam, form=form)) == fam


def test_json_hex_form_reads_hex_digits_of_either_case():
    fam = family_from_json('{"n": 6, "hex": ["1F", "001f", "3", "0"]}')
    assert fam.members == (0, 3, 31)


@pytest.mark.parametrize("text", ["0x1f", " 1f ", "1_f", "+1f", "-1f", "", "1f\n",
                                  "\uff11f", "\u0661"])
def test_json_hex_form_refuses_all_but_hex_digits(text):
    # int(text, 16) accepts a prefix, a sign, "_", spaces and non-ASCII digits
    with pytest.raises(ValueError, match="is not a string of hex digits"):
        family_from_json(json.dumps({"n": 6, "hex": ["3", text]}))


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        family_from_json('{"n": 3}')
