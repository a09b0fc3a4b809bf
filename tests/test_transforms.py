import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from katona import (
    SetFamily, ShiftLog, at_least, ball, complement_family, diameter,
    down_shift, elements_of, family_from_sets, is_complex,
    is_cross_t_intersecting, is_initial, is_t_intersecting, is_u_union, katona,
    katona_x, left_translate, make_complex_by_downshift, make_initial,
    make_initial_pair, precedes, replay, shift_ij,
)
from helpers import (
    random_family, random_t_intersecting_family, random_u_union_family,
    random_cross_pair,
)


@st.composite
def families(draw, max_n=6, max_members=10):
    n = draw(st.integers(2, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_members))
    return SetFamily.from_masks(n, masks)


# -- i <- j shifts --------------------------------------------------------------

def test_shift_moves_free_member():
    assert shift_ij(family_from_sets(3, [[2, 3]]), 1, 2).member_sets() == ((1, 3),)


def test_shift_blocked_when_target_present():
    fam = family_from_sets(3, [[2, 3], [1, 3]])
    assert shift_ij(fam, 1, 2) == fam


def test_shift_rejects_bad_indices():
    fam = family_from_sets(3, [[1]])
    with pytest.raises(ValueError):
        shift_ij(fam, 2, 2)
    with pytest.raises(ValueError):
        shift_ij(fam, 0, 1)


@given(families(), st.data())
def test_shift_preserves_size_and_layers(fam, data):
    i = data.draw(st.integers(1, fam.n - 1))
    j = data.draw(st.integers(i + 1, fam.n))
    shifted = shift_ij(fam, i, j)
    assert len(shifted) == len(fam)
    sizes = sorted(m.bit_count() for m in fam.members)
    assert sorted(m.bit_count() for m in shifted.members) == sizes


def test_shift_preserves_intersecting_and_union():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2, 8)
        t = rng.randrange(1, 3)
        fam = random_t_intersecting_family(rng, n, t)
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        assert is_t_intersecting(shift_ij(fam, i, j), t)
        u = rng.randrange(1, n)
        fam = random_u_union_family(rng, n, u)
        assert is_u_union(shift_ij(fam, i, j), u)


def test_shift_preserves_cross_intersecting_on_pairs():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(2, 7)
        t = rng.randrange(1, 3)
        fam_a, fam_b = random_cross_pair(rng, n, t)
        if not fam_a.members or not fam_b.members:
            continue
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        assert is_cross_t_intersecting(
            shift_ij(fam_a, i, j), shift_ij(fam_b, i, j), t)


# -- initial families ------------------------------------------------------------

def test_make_initial_example():
    out, log = make_initial(family_from_sets(3, [[2, 3]]))
    assert out.member_sets() == ((1, 2),)
    assert log.ops


def test_make_initial_fixed_point_has_empty_log():
    fam = katona(6, 4)
    out, log = make_initial(fam)
    assert out == fam
    assert log.ops == ()


@given(families())
def test_make_initial_is_initial_and_idempotent(fam):
    out, log = make_initial(fam)
    assert is_initial(out)
    again, log2 = make_initial(out)
    assert again == out and log2.ops == ()
    assert replay(fam, log) == out
    assert len(out) == len(fam)


def test_make_initial_preserves_overflow():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(3, 8)
        u = rng.randrange(2, n)
        fam = random_u_union_family(rng, n, u)
        d = u // 2
        out, _ = make_initial(fam)
        assert len(at_least(out, d + 1)) == len(at_least(fam, d + 1))


def test_make_initial_preserves_properties():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randrange(2, 8)
        t = rng.randrange(1, 3)
        fam = random_t_intersecting_family(rng, n, t)
        out, _ = make_initial(fam)
        assert is_t_intersecting(out, t)
        u = rng.randrange(1, n)
        fam = random_u_union_family(rng, n, u)
        out, _ = make_initial(fam)
        assert is_u_union(out, u)


def test_make_initial_pair_keeps_cross_property():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(2, 7)
        t = rng.randrange(1, 3)
        fam_a, fam_b = random_cross_pair(rng, n, t)
        if not fam_a.members or not fam_b.members:
            continue
        out_a, out_b = make_initial_pair(fam_a, fam_b)
        assert is_initial(out_a) and is_initial(out_b)
        assert is_cross_t_intersecting(out_a, out_b, t)


@pytest.mark.parametrize("x", range(1, 17))
def test_shift_sweep_ends_once_initial(x):
    """One shift (1, x) makes the anchored family initial; the pass ends at
    the i = 1 group boundary, and `passes` counts the pass that would move
    nothing."""
    out, log = make_initial(katona_x(16, 7, x))
    assert out == katona(16, 7)
    assert (log.ops, log.passes) == (((("shift", 1, x),), 2) if x > 1 else ((), 1))


def _plain_sweep(fams):
    """The fixpoint by its definition, with no early exit: apply every i<-j
    shift in lexicographic order to all families, sweep after sweep, until a
    sweep moves nothing; log each shift that moved a member and count the
    sweeps, the last one included."""
    n = fams[0].n
    ops, passes, moved = [], 0, True
    while moved:
        passes += 1
        moved = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                shifted = [shift_ij(fam, i, j) for fam in fams]
                if shifted != fams:
                    ops.append(("shift", i, j))
                    fams, moved = shifted, True
    return fams, ShiftLog(tuple(ops), passes)


def _plain_downshift_sweep(fam):
    """The down-shift fixpoint by its definition, with no early exit: apply
    D_1..D_n, sweep after sweep, until a sweep moves nothing; log each
    down-shift that moved a member and count the sweeps, the last one
    included."""
    ops, passes, moved = [], 0, True
    while moved:
        passes += 1
        moved = False
        for i in range(1, fam.n + 1):
            shifted = down_shift(fam, i)
            if shifted != fam:
                ops.append(("downshift", i))
                fam, moved = shifted, True
    return fam, ShiftLog(tuple(ops), passes)


def _all_families(max_n):
    """Every family on [n] for 1 <= n <= max_n: 276 for max_n = 3."""
    return [SetFamily.from_masks(n, [m for m in range(1 << n) if bits >> m & 1])
            for n in range(1, max_n + 1) for bits in range(1 << (1 << n))]


def test_shift_sweeps_match_a_plain_sweep():
    rng = random.Random(22)
    pairs = []
    for _ in range(120):
        n = rng.randrange(1, 13)
        pairs.append((random_family(rng, n, 16), random_family(rng, n, 16)))
    pairs += [(fam, complement_family(fam)) for fam in _all_families(3)]
    for fam, other in pairs:
        (out,), log = _plain_sweep([fam])
        assert make_initial(fam) == (out, log)
        assert make_initial_pair(fam, other) == tuple(_plain_sweep([fam, other])[0])


def test_downshift_pass_matches_a_plain_sweep():
    from katona.transforms import _downshift_fixpoint
    rng = random.Random(23)
    fams = [random_family(rng, rng.randrange(1, 13), 16) for _ in range(120)]
    for fam in fams + _all_families(3):
        assert _downshift_fixpoint(fam) == _plain_downshift_sweep(fam)


def test_precedes():
    assert precedes(0b101, 0b110)       # {1,3} before {2,3}
    assert not precedes(0b1001, 0b110)  # {1,4} vs {2,3}
    assert precedes(0b11, 0b11)
    with pytest.raises(ValueError):
        precedes(0b1, 0b11)


def test_katona_families_are_initial():
    for n in range(2, 9):
        for u in range(1, n):
            assert is_initial(katona(n, u))


def test_is_initial_matches_shift_fixpoint():
    rng = random.Random(14)
    for _ in range(150):
        fam = random_family(rng, rng.randrange(2, 6), 8)
        fixed = all(
            shift_ij(fam, i, j) == fam
            for i in range(1, fam.n) for j in range(i + 1, fam.n + 1))
        assert is_initial(fam) == fixed


def _swap_closed(fam):
    """The definition: every j -> i swap (i < j, j in m, i not in m) of every
    member m is a member."""
    present = set(fam.members)
    return all((m ^ (1 << (j - 1))) | (1 << (i - 1)) in present
               for m in present for j in elements_of(m)
               for i in range(1, j) if not m >> (i - 1) & 1)


def test_is_initial_matches_swap_definition():
    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for _ in range(500):
        fam = random_family(rng, rng.randrange(1, 9), 16)
        for f in (fam, make_initial(fam)[0]):
            assert is_initial(f) == _swap_closed(f), f
            seen[is_initial(f)] += 1
    assert seen[True] > 500 and seen[False] > 100


# -- down-shifts ------------------------------------------------------------------

def test_down_shift_blocked():
    fam = family_from_sets(3, [[1, 2], [2]])
    assert down_shift(fam, 1) == fam


def test_down_shift_of_anchored_ball():
    # removing the anchor turns the anchored family into the plain one
    assert down_shift(ball(3, (1,), 2), 1) == ball(3, (), 2)


def test_down_shift_never_grows_diameter():
    rng = random.Random(15)
    for _ in range(150):
        fam = random_family(rng, rng.randrange(1, 7), 8)
        for i in range(1, fam.n + 1):
            shifted = down_shift(fam, i)
            assert len(shifted) == len(fam)
            assert diameter(shifted) <= diameter(fam)


def test_down_shift_intersection_monotone():
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(1, 5)
        fam_a = random_family(rng, n, 8)
        fam_b = random_family(rng, n, 8)
        for i in range(1, n + 1):
            da = set(down_shift(fam_a, i).members)
            db = set(down_shift(fam_b, i).members)
            assert len(da & db) >= len(
                set(fam_a.members) & set(fam_b.members)), (fam_a, fam_b, i)


def test_down_shift_of_balls_small_grid():
    for n in range(2, 5):
        for u in range(1, n):
            for center_mask in range(1 << n):
                fam = ball(n, elements_of(center_mask), u)
                for i in range(1, n + 1):
                    want = ball(n, elements_of(center_mask & ~(1 << (i - 1))), u)
                    assert down_shift(fam, i) == want


def test_make_complex_by_downshift():
    out = make_complex_by_downshift(family_from_sets(2, [[1, 2]]))
    assert out.member_sets() == ((),)
    fam = katona(5, 4)
    assert make_complex_by_downshift(fam) == fam


def test_make_complex_preserves_size_and_bounds_diameter():
    rng = random.Random(17)
    for _ in range(120):
        fam = random_family(rng, rng.randrange(1, 7), 8)
        out = make_complex_by_downshift(fam)
        assert is_complex(out)
        assert len(out) == len(fam)
        assert diameter(out) <= diameter(fam)


# -- left-translate ---------------------------------------------------------------

def test_left_translate():
    out = left_translate(family_from_sets(6, [[3, 4]]), 2)
    assert out.n == 4 and out.member_sets() == ((1, 2),)


def test_left_translate_identity():
    fam = family_from_sets(4, [[1, 2]])
    assert left_translate(fam, 0) == fam


def test_left_translate_rejects_low_elements():
    with pytest.raises(ValueError):
        left_translate(family_from_sets(4, [[1, 3]]), 2)


def test_left_translate_preserves_initiality():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randrange(4, 8)
        p = rng.randrange(1, 3)
        k = rng.randrange(1, n - p)
        # uniform family inside [p+1, n], made initial within that window
        masks = set()
        import itertools
        pool = list(itertools.combinations(range(p + 1, n + 1), k))
        for c in rng.sample(pool, min(len(pool), 5)):
            masks.add(sum(1 << (e - 1) for e in c))
        fam = SetFamily.from_masks(n, masks)
        # close under shifts that stay inside the window
        changed = True
        while changed:
            changed = False
            for i in range(p + 1, n):
                for j in range(i + 1, n + 1):
                    s = shift_ij(fam, i, j)
                    if s != fam:
                        fam, changed = s, True
        out = left_translate(fam, p)
        assert is_initial(out)


# -- logs ---------------------------------------------------------------------------

def test_shift_log_json_round_trip():
    log = ShiftLog((("shift", 1, 2), ("downshift", 3), ("translate", 1)), 2)
    assert ShiftLog.from_json_dict(log.to_json_dict()) == log


@pytest.mark.parametrize("obj", [
    None, [], {}, {"ops": None}, {"ops": {}}, {"ops": [1]},
    {"ops": [{"i": 1}]}, {"ops": [{"kind": "rotate", "i": 1}]},
    {"ops": [{"kind": ["shift"], "i": 1, "j": 2}]},
    {"ops": [{"kind": "shift", "i": True, "j": 2.7}]},
    {"ops": [{"kind": "shift", "i": 1}]},
    {"ops": [{"kind": "downshift", "i": "1"}]},
    {"ops": [{"kind": "translate"}]},
    {"ops": [], "passes": None}, {"ops": [], "passes": 1.0},
    {"ops": [], "passes": False},
])
def test_shift_log_rejects_malformed_json(obj):
    with pytest.raises(ValueError):
        ShiftLog.from_json_dict(obj)


@pytest.mark.parametrize("sets, ops, message", [
    # the shift is valid on [4], but the translate has shrunk n to 2
    ([[3, 4]], [("translate", 2), ("shift", 1, 4)], "need 1 <= i < j <= 2"),
    ([[1]], [("shift", 2, 2)], "need 1 <= i < j <= 4, got i=2, j=2"),
    ([[1]], [("shift", 3, 2)], "need 1 <= i < j <= 4"),
    ([[1]], [("downshift", 0)], r"element 0 outside ground set \[1, 4\]"),
    ([[1]], [("downshift", 5)], r"element 5 outside ground set \[1, 4\]"),
    # the first offending member in canonical order: {3} before {1, 2}
    ([[1, 2], [3]], [("translate", 3)], r"member \(3,\) has an element <= 3"),
    ([[3]], [("translate", 5)], r"translate amount must be in \[0, 4\]"),
    ([[1]], [("rotate", 1)], "unknown op"),
    ([[1]], [("shift", 1)], "unknown op"),
])
def test_replay_rejects_invalid_ops(sets, ops, message):
    with pytest.raises(ValueError, match=message):
        replay(family_from_sets(4, sets), ShiftLog(tuple(ops)))


def test_downshift_log_replays():
    from katona.transforms import _downshift_fixpoint
    rng = random.Random(19)
    for _ in range(40):
        fam = random_family(rng, rng.randrange(1, 6), 6)
        out, log = _downshift_fixpoint(fam)
        assert replay(fam, log) == out


def test_sweeps_pinned():
    """One digest over the results and logs of the three fixpoint sweeps on
    200 seeded random families: it changes if any output, op or pass count
    does."""
    from katona.transforms import _downshift_fixpoint
    rng = random.Random(20)
    digest = hashlib.sha256()
    for _ in range(200):
        n = rng.randrange(1, 9)
        fam, other = random_family(rng, n, 16), random_family(rng, n, 16)
        for sweep in (make_initial, _downshift_fixpoint):
            out, log = sweep(fam)
            assert replay(fam, log) == out
            digest.update(repr((out.members, log.ops, log.passes)).encode())
        out_a, out_b = make_initial_pair(fam, other)
        digest.update(repr((out_a.members, out_b.members)).encode())
    assert digest.hexdigest() == (
        "801d3fcdf34c53b13fc8b06bcf96ec1b1920894e11cf2ce06020721fbaeb634b")
