"""Acceptance battery: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Everything is exact (tolerance zero); elapsed times are printed against the
stated budgets.  The ratio-inequality grid test is a strict expected
failure: the inequality is false on part of its stated grid (see the test
body for the counterexample), so that one criterion cannot pass as stated.
"""

import functools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from katona import (
    SetFamily, at_least, ball, complement_family, crossover_quintic,
    d_even_gap, d_even_gap_closed_form, d_even_overflow, diametral_overflow,
    down_closure, down_shift, elements_of, family_walks_hit,
    g_family, is_cross_t_intersecting, is_initial, is_t_intersecting,
    is_u_union, katona, katona_bound, katona_overflow_of, key_ratio_holds,
    layer, make_initial, mask_of, maximize,
    overflow_bound, overflow_odd_of, recheck, reflection_count,
    brute_hit_count, shadow_bound_check, shift_ij, sperner_cross_check,
    verify_hilton,
)
from katona.cli import run as cli_run
from helpers import (
    random_family, random_t_intersecting_family, random_u_union_family,
    random_cross_pair,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {label}")
                raise
            print(f"[PASS] criterion {num}: {label}"
                  f" ({time.monotonic() - t0:.1f}s)")
        return wrapper
    return deco


@criterion(1, "even overflow search at (6,1) exhaustive and (12,2) pruned")
def test_criterion_01_overflow_even_search(tmp_path, capsys):
    t0 = time.monotonic()
    cert_path = tmp_path / "c61.json"
    assert cli_run(["search", "--objective", "overflow-even", "--n", "6",
                    "--d", "1", "--initial-complexes", "no",
                    "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["optimum"] == "1" and cert["proven_optimal"]
    assert cert["reduction"] == "none"
    elapsed_small = time.monotonic() - t0
    assert elapsed_small < 1.0
    assert cli_run(["recheck", "--input", str(cert_path),
                    "-o", str(tmp_path / "r.json")]) == 0

    t0 = time.monotonic()
    cert_path = tmp_path / "c122.json"
    assert cli_run(["search", "--objective", "overflow-even", "--n", "12",
                    "--d", "2", "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["optimum"] == "10" and cert["proven_optimal"]
    assert cert["reduction"] == "initial_complex"
    assert int(cert["optimum"]) == comb(10, 1)
    assert time.monotonic() - t0 <= 60.0
    assert cli_run(["recheck", "--input", str(cert_path),
                    "-o", str(tmp_path / "r2.json")]) == 0
    capsys.readouterr()


@criterion(2, "sharpness failure of the even overflow bound below n = 4d-1")
def test_criterion_02_d_even_sharpness():
    assert d_even_overflow(10, 3) == 31
    assert overflow_bound(10, 6).value == comb(8, 2) == 28
    assert d_even_overflow(10, 3) > overflow_bound(10, 6).value
    assert d_even_gap(10, 3) == 3
    for d in range(3, 7):
        n = 4 * d - 2
        gap = d_even_gap(n, d)
        closed = Fraction(4 * d - 1 - n, d - 1) * comb(n - 4, d - 2)
        assert gap == closed == d_even_gap_closed_form(n, d)
        assert gap > 0


@criterion(3, "largest u-union families on 2 <= u < n <= 7 with uniqueness")
def test_criterion_03_katona_small_scale():
    t0 = time.monotonic()
    for n in range(3, 8):
        for u in range(2, n):
            cert = maximize("max_union_size", {"n": n, "u": u})
            assert cert.optimum == katona_bound(n, u), (n, u)
            assert cert.proven_optimal and recheck(cert)
            if u <= n - 2:
                assert cert.maximizers == 1, (n, u)
                assert cert.witness == katona(n, u), (n, u)
            else:
                assert cert.maximizers >= 2, (n, u)
    assert time.monotonic() - t0 <= 120.0


@criterion(4, "largest bounded-diameter families match the union bound")
def test_criterion_04_kleitman_small_scale():
    for n in range(3, 8):
        for u in range(2, n):
            cert = maximize("max_diameter_size", {"n": n, "u": u})
            assert cert.optimum == len(katona(n, u)), (n, u)
            assert cert.reduction_used == "downshift_complex"
            assert cert.proven_optimal and recheck(cert)


@criterion(5, "upper-layer maximum at (n,r) = (8,2) with unique witness")
def test_criterion_05_upper_layers_8_2():
    t0 = time.monotonic()
    cert = maximize("upper_layers", {"n": 8, "u": 4})
    assert cert.optimum == comb(8, 2) == 28
    assert cert.proven_optimal and recheck(cert)
    upper = at_least(cert.witness, 2)
    assert set(upper.members) == {
        mask_of(c) for c in __import__("itertools").combinations(range(1, 9), 2)}
    assert cert.maximizers == 1
    assert time.monotonic() - t0 <= 600.0


@criterion(6, "reflection formula equals walk enumeration on the full grid")
def test_criterion_06_reflection_oracle():
    t0 = time.monotonic()
    cells = 0
    for n in range(0, 13):
        for k in range(0, n + 1):
            for t in range(-4, 5):
                for a in range(0, 4):
                    for b in range(0, 4):
                        try:
                            expected = reflection_count(n, k, t, a, b)
                        except ValueError:
                            continue
                        cells += 1
                        assert expected == brute_hit_count(n, k, t, a, b), \
                            (n, k, t, a, b)
    assert cells >= 2000  # guards against silently skipping the grid
    assert time.monotonic() - t0 < 30.0


@criterion(7, "operator invariants over 10^4 random families with n <= 8")
def test_criterion_07_operator_battery():
    rng = random.Random(0xC0FFEE)
    families_used = 0
    for _ in range(2500):
        n = rng.randrange(2, 9)
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)

        fam = random_family(rng, n, 10)
        families_used += 1
        shifted = shift_ij(fam, i, j)
        assert len(shifted) == len(fam)
        assert (sorted(m.bit_count() for m in shifted.members)
                == sorted(m.bit_count() for m in fam.members))
        comp = complement_family(fam)
        for t in range(1, n):
            assert is_t_intersecting(fam, t) == is_u_union(comp, n - t)

        t = rng.randrange(1, min(4, n + 1))
        tfam = random_t_intersecting_family(rng, n, t)
        families_used += 1
        assert is_t_intersecting(shift_ij(tfam, i, j), t)
        initial, _ = make_initial(tfam)
        assert is_initial(initial)
        assert family_walks_hit(initial, t)

        u = rng.randrange(1, n)
        ufam = random_u_union_family(rng, n, u)
        families_used += 1
        assert is_u_union(shift_ij(ufam, i, j), u)
        d, h = u // 2, u % 2
        for ii in range(1, u - d + 1):
            if d + ii > n:
                continue
            li = layer(ufam, d + ii)
            if not li.members:
                continue
            tt = 2 * ii - h
            if tt >= 1:
                assert is_t_intersecting(li, tt)
            for jj in range(ii, u - d + 1):
                if d + jj > n:
                    continue
                lj = layer(ufam, d + jj)
                tc = ii + jj - h
                if lj.members and tc >= 1:
                    assert is_cross_t_intersecting(li, lj, tc)

        ca, cb = random_cross_pair(rng, n, 1, tries=8)
        families_used += 1
        if ca.members and cb.members:
            assert is_cross_t_intersecting(
                shift_ij(ca, i, j), shift_ij(cb, i, j), 1)
    assert families_used >= 10_000


@criterion(8, "down-shift facts and the complex overflow identity")
def test_criterion_08_downshift_battery():
    rng = random.Random(0xBEEF)
    # intersection monotonicity: all family pairs over an 8-subset universe of [4]
    universe = rng.sample(range(1 << 4), 8)
    subfams = [SetFamily.from_masks(4, [universe[i] for i in range(8) if bits >> i & 1])
               for bits in range(1 << 8)]
    shifted = {i: [down_shift(f, i) for f in subfams] for i in (1, 2, 3, 4)}
    for ai, fa in enumerate(subfams):
        sa = set(fa.members)
        for bi in range(ai, len(subfams)):
            base = len(sa & set(subfams[bi].members))
            if base == 0:
                continue
            for i in (1, 2, 3, 4):
                da = set(shifted[i][ai].members)
                db = set(shifted[i][bi].members)
                assert len(da & db) >= base
    # and sampled pairs up to n = 8
    for _ in range(1000):
        n = rng.randrange(2, 9)
        fa = random_family(rng, n, 10)
        fb = random_family(rng, n, 10)
        i = rng.randrange(1, n + 1)
        assert len(set(down_shift(fa, i).members) & set(down_shift(fb, i).members)) \
            >= len(set(fa.members) & set(fb.members))
    # balls: down-shift deletes the center element, exhaustively
    for n in range(2, 7):
        for u in range(1, min(n, 5)):
            for center in range(1 << n):
                fam = ball(n, elements_of(center), u)
                for i in range(1, n + 1):
                    want = ball(n, elements_of(center & ~(1 << (i - 1))), u)
                    assert down_shift(fam, i) == want, (n, u, center, i)
    # complexes: plain overflow equals diametral overflow
    complexes = 0
    while complexes < 1000:
        n = rng.randrange(2, 9)
        fam = down_closure(random_family(rng, n, 8))
        u = rng.randrange(1, n)
        complexes += 1
        assert katona_overflow_of(fam, u) == diametral_overflow(fam, u)[0], (n, u)


@criterion(9, "lexicographic compression preserves cross-intersection")
def test_criterion_09_hilton_compression():
    for n, a, b in ((5, 2, 2), (4, 1, 2)):
        rep = verify_hilton(n, a, b)
        assert rep.holds and rep.counterexample is None


@pytest.mark.xfail(
    strict=True,
    reason="the ratio inequality is false on part of its stated grid: at "
    "(n,r,a,b) = (4,3,1,2) the left side is 1/4 and the right side is 1/3; "
    "it is a theorem only where n - r + b - a >= r, which covers every use "
    "the proofs make of it; test_criterion_10b checks it on that regime")
@criterion("10a", "ratio inequality on its full stated grid [known defect]")
def test_criterion_10a_key_ratio_grid_as_stated():
    violations = []
    for n in range(2, 41):
        for a in range(1, 5):
            for b in range(1, 5):
                for r in range(b + 1, min(n, n - a + 1)):
                    rep = key_ratio_holds(n, r, a, b)
                    if not rep.holds:
                        violations.append((n, r, a, b))
    assert not violations, (
        f"{len(violations)} violations on the stated grid, "
        f"first: {violations[:5]}")


@criterion("10b", "ratio checks: valid-regime grid, sampled bounds, quintic sign")
def test_criterion_10b_remaining_inequality_checks():
    # the inequality where its proof applies, full n <= 40 grid
    for n in range(2, 41):
        for a in range(1, 5):
            for b in range(1, 5):
                for r in range(b + 1, min(n, n - a + 1)):
                    if n - r + b - a >= r:
                        assert key_ratio_holds(n, r, a, b).holds, (n, r, a, b)
    # sampled shadow / cross ratio checks
    rng = random.Random(0xFEED)
    from itertools import combinations
    checks = 0
    while checks < 1000:
        n = rng.randrange(3, 9)
        k = rng.randrange(1, n)
        pool = [mask_of(c) for c in combinations(range(1, n + 1), k)]
        fam = SetFamily.from_masks(
            n, rng.sample(pool, rng.randrange(1, len(pool) + 1)))
        assert shadow_bound_check(fam, rng.randrange(0, k)).holds
        a = rng.randrange(1, n // 2 + 1)
        b = rng.randrange(1, n - a)
        pool_a = [mask_of(c) for c in combinations(range(1, n + 1), a)]
        rng.shuffle(pool_a)
        fam_a = pool_a[:rng.randrange(1, 5)]
        fam_b = [m for m in (mask_of(c) for c in combinations(range(1, n + 1), b))
                 if all(m & o for o in fam_a)]
        assert sperner_cross_check(
            SetFamily.from_masks(n, fam_a), SetFamily.from_masks(n, fam_b)).holds
        checks += 2
    assert crossover_quintic(Fraction(11, 10)) > 0
    assert crossover_quintic(Fraction(13, 10)) < 0


@criterion(11, "declared out-of-reach regimes, substituted by formula checks")
def test_criterion_11_regime_declarations():
    # regimes n > 36(d+1), n > 36k, and large even/upper-layer instances are
    # not searchable at desk scale; checks below are the declared substitutes
    for n, d, want in ((4, 1, 2), (5, 1, 2)):
        cert = maximize("overflow_odd", {"n": n, "d": d})
        assert cert.optimum == want == 2 * comb(n - 3, d - 1)
        assert cert.proven_optimal and recheck(cert)
    value, best_x = overflow_odd_of(g_family(8, 2), 2)
    assert value == 10 == 2 * comb(5, 1)
    assert best_x == 1
    # the odd-overflow formula value itself, in regime
    rep = overflow_bound(80, 3)
    assert rep.value == 2 * comb(77, 0) and rep.in_proved_regime
    print("  declared not reproducible at desk scale: odd overflow for "
          "n > 36(d+1), diversity for n > 36k, large even-overflow and "
          "upper-layer instances; covered by the formula-level checks above")
