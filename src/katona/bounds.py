"""Exact evaluators for the closed-form bounds and inequalities.

Everything here is integer or Fraction arithmetic; no floats.  Evaluators
that belong to a theorem with an n-threshold report the formula value
unconditionally and attach an in_proved_regime flag instead of refusing to
evaluate; thresholds with fractional constants are compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import (CapExceeded, SetFamily, family_to_json_dict,
                   is_cross_t_intersecting, mask_of, shadow)
from .constructions import lex_segment

BINOM_CAP = 4096    # n of an exact binomial: every bound on it takes under a second


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n so sums with shifted indices collapse."""
    if not 0 <= n <= BINOM_CAP:
        raise ValueError(f"C({n}, {k}): n must be >= 0 and must not exceed {BINOM_CAP}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class BoundReport:
    """Named exact value and/or inequality verdict."""

    name: str
    params: dict = field(default_factory=dict)
    value: int | None = None
    holds: bool | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    in_proved_regime: bool | None = None
    formula: str = ""
    counterexample: tuple | None = None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "params": dict(self.params)}
        if self.value is not None:
            out["value"] = str(self.value)
        if self.holds is not None:
            out["holds"] = self.holds
        if self.lhs is not None:
            out["lhs"] = str(self.lhs)
        if self.rhs is not None:
            out["rhs"] = str(self.rhs)
        if self.in_proved_regime is not None:
            out["in_proved_regime"] = self.in_proved_regime
        if self.formula:
            out["formula"] = self.formula
        return out


# ---------------------------------------------------------------------------
# size bounds for union-bounded / intersecting families

def katona_bound(n: int, u: int) -> int:
    """Largest size of a u-union family: sum_{i<=d} C(n,i) for u = 2d,
    twice sum_{i<=d} C(n-1,i) for u = 2d+1."""
    if not 0 < u < n:
        raise ValueError(f"need 0 < u < n, got u={u}, n={n}")
    d = u // 2
    if u % 2 == 0:
        return sum(binom(n, i) for i in range(d + 1))
    return 2 * sum(binom(n - 1, i) for i in range(d + 1))


def ekr_bound(n: int, k: int, t: int) -> int:
    """C(n - t, k - t): the t-star size, extremal for large n."""
    if not (n > k >= t > 0):
        raise ValueError(f"need n > k >= t > 0, got n={n}, k={k}, t={t}")
    return binom(n - t, k - t)


def hm_bound(n: int, k: int) -> int:
    """C(n-1, k-1) - C(n-k-1, k-1) + 1 for non-trivial intersecting k-sets."""
    if not n > 2 * k or k < 1:
        raise ValueError(f"need n > 2k >= 2, got n={n}, k={k}")
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def layer_bound(n: int, t: int, ell: int) -> int:
    """C(n, ell): cap on the (t + ell)-layer of any t-intersecting family."""
    if t < 1 or ell < 0:
        raise ValueError(f"need t >= 1 and ell >= 0, got t={t}, ell={ell}")
    return binom(n, ell)


def complete_intersection_bound(n: int, k: int, t: int) -> int:
    """The largest t-intersecting family of k-subsets of [n] (Ahlswede and
    Khachatrian's complete intersection theorem): the max over
    0 <= r <= (n - t)/2 of |{F : |F & [t + 2r]| >= t + r}|, that is
    sum_{i=t+r}^{min(k, t+2r)} C(t + 2r, i) C(n - t - 2r, k - i)."""
    if not 1 <= t <= k <= n:
        raise ValueError(f"need 1 <= t <= k <= n, got n={n}, k={k}, t={t}")
    return max(sum(binom(t + 2 * r, i) * binom(n - t - 2 * r, k - i)
                   for i in range(t + r, min(k, t + 2 * r) + 1))
               for r in range((n - t) // 2 + 1))


def near_base_overflow(n: int, d: int, s: int) -> int:
    """Overflow of the near-base rung {S : |S \\ [2s]| <= d - s}, the
    members of size above d: sum_{k=d+1}^{2d} sum_{j<=d-s} C(2s, k-j) C(n-2s, j)."""
    if not 1 <= s <= d or n < 2 * s:
        raise ValueError(f"need 1 <= s <= d and n >= 2s, got n={n}, d={d}, s={s}")
    return sum(binom(2 * s, k - j) * binom(n - 2 * s, j)
               for k in range(d + 1, 2 * d + 1) for j in range(d - s + 1))


def layer_bound_refined(n: int, t: int, ell: int) -> BoundReport:
    """C(n-1, ell), valid for ell <= (n - t - 1) / 2; regime-flagged."""
    if t < 1 or ell < 0 or t + ell > n:
        raise ValueError(f"need t >= 1, ell >= 0 and t + ell <= n, "
                         f"got n={n}, t={t}, ell={ell}")
    return BoundReport(
        name="layer_bound_refined", params={"n": n, "t": t, "ell": ell},
        value=binom(n - 1, ell), in_proved_regime=(2 * ell <= n - t - 1),
        formula="C(n-1, ell)")


# ---------------------------------------------------------------------------
# overflow / upper-layer / diversity values with regime flags

def overflow_bound(n: int, u: int) -> BoundReport:
    """Maximal overflow value: C(n-2, d-1) for u = 2d (regime n >= 6d),
    2 C(n-3, d-1) for u = 2d+1 (regime n > 36(d+1))."""
    if not 2 <= u < n:
        raise ValueError(f"need 2 <= u < n, got u={u}, n={n}")
    d = u // 2
    if u % 2 == 0:
        return BoundReport(
            name="overflow_bound", params={"n": n, "u": u},
            value=binom(n - 2, d - 1), in_proved_regime=(n >= 6 * d),
            formula="C(n-2, d-1)")
    return BoundReport(
        name="overflow_bound", params={"n": n, "u": u},
        value=2 * binom(n - 3, d - 1), in_proved_regime=(n > 36 * (d + 1)),
        formula="2 C(n-3, d-1)")


def upper_layer_bound(n: int, u: int) -> BoundReport:
    """C(n, r) on layers >= r for u = 2r (regime n >= 3.5r + 1);
    C(n-1, r) on layers >= r+1 for u = 2r+1 (regime n > 4r)."""
    if not 2 <= u < n:
        raise ValueError(f"need 2 <= u < n, got u={u}, n={n}")
    r = u // 2
    if u % 2 == 0:
        regime = Fraction(n) >= Fraction(7, 2) * r + 1
        return BoundReport(
            name="upper_layer_bound", params={"n": n, "u": u},
            value=binom(n, r), in_proved_regime=regime, formula="C(n, r)")
    return BoundReport(
        name="upper_layer_bound", params={"n": n, "u": u},
        value=binom(n - 1, r), in_proved_regime=(n > 4 * r), formula="C(n-1, r)")


def diversity_formula(n: int, k: int) -> BoundReport:
    """C(n-3, k-2), the exact diversity for n > 36k."""
    if not n > 2 * k or k < 1:
        raise ValueError(f"need n > 2k >= 2, got n={n}, k={k}")
    return BoundReport(
        name="diversity_formula", params={"n": n, "k": k},
        value=binom(n - 3, k - 2), in_proved_regime=(n > 36 * k),
        formula="C(n-3, k-2)")


# ---------------------------------------------------------------------------
# walk bounds for initial k-uniform families

def walk_gap_bound(n: int, k: int, p: int) -> int:
    """Size cap C(n, k-p-1) when (1..p, p+2, p+4, ..., 2k-p) is missing."""
    if not 0 <= p <= k - 1 or 2 * k - p > n:
        raise ValueError(f"need 0 <= p < k and 2k - p <= n, got n={n}, k={k}, p={p}")
    return binom(n, k - p - 1)


def walk_skip_bound(n: int, k: int, p: int) -> int:
    """Size cap C(n,k) - C(n-p+2,k) + C(n-p+2,k-1) when (p, p+2, ..., p+2k-2) is missing."""
    if not 2 <= p <= k - 1 or p + 2 * k - 2 > n:
        raise ValueError(f"need 2 <= p <= k-1 and p + 2k - 2 <= n, "
                         f"got n={n}, k={k}, p={p}")
    return binom(n, k) - binom(n - p + 2, k) + binom(n - p + 2, k - 1)


def key_ratio_holds(n: int, r: int, a: int, b: int) -> BoundReport:
    """C(n-a, r) / C(n, r-b) >= ((n-r+b-a+1)/(n-a+1))^a ((n-r+b-a)/r)^b.

    Exact-rational comparison; requires n >= r + a and n > r > b, all positive.
    """
    if min(n, r, a, b) < 1:
        raise ValueError(
            f"all of n, r, a, b must be positive, got n={n}, r={r}, a={a}, b={b}")
    if n < r + a or not n > r > b:
        raise ValueError(f"need n >= r+a and n > r > b, got n={n}, r={r}, a={a}, b={b}")
    lhs = Fraction(binom(n - a, r), binom(n, r - b))
    rhs = (Fraction(n - r + b - a + 1, n - a + 1) ** a
           * Fraction(n - r + b - a, r) ** b)
    return BoundReport(
        name="key_ratio", params={"n": n, "r": r, "a": a, "b": b},
        holds=(lhs >= rhs), lhs=lhs, rhs=rhs,
        formula="C(n-a,r)/C(n,r-b) >= ((n-r+b-a+1)/(n-a+1))^a ((n-r+b-a)/r)^b")


# ---------------------------------------------------------------------------
# the two sharpness families, exactly

def d_even_overflow(n: int, d: int) -> int:
    """Overflow of the base-[4] family: 5 C(n-4, d-2) + C(n-4, d-3)."""
    if d < 2 or n < 4:
        raise ValueError(f"need d >= 2 and n >= 4, got d={d}, n={n}")
    return 5 * binom(n - 4, d - 2) + binom(n - 4, d - 3)


def d_even_gap(n: int, d: int) -> int:
    """d_even_overflow minus C(n-2, d-1); positive exactly when n < 4d - 1."""
    return d_even_overflow(n, d) - binom(n - 2, d - 1)


def d_even_gap_closed_form(n: int, d: int) -> Fraction:
    """(4d - 1 - n) / (d - 1) * C(n-4, d-2); equals d_even_gap for d >= 2."""
    if d < 2 or n < 4:
        raise ValueError(f"need d >= 2 and n >= 4, got d={d}, n={n}")
    return Fraction(4 * d - 1 - n, d - 1) * binom(n - 4, d - 2)


def d2r_upper_count(n: int, r: int) -> int:
    """Layers >= r of the base-[6] family:
    42 C(n-6, r-3) + 22 C(n-6, r-4) + 7 C(n-6, r-5) + C(n-6, r-6)."""
    if r < 3 or n < 6:
        raise ValueError(f"need r >= 3 and n >= 6, got r={r}, n={n}")
    return (42 * binom(n - 6, r - 3) + 22 * binom(n - 6, r - 4)
            + 7 * binom(n - 6, r - 5) + binom(n - 6, r - 6))


def d2r_gap(n: int, r: int) -> int:
    """d2r_upper_count minus C(n, r); sign governed by the quintic in c = n/r - 1."""
    return d2r_upper_count(n, r) - binom(n, r)


def crossover_quintic(c: Fraction) -> int:
    """Sign of 1 + 7c + 22c^2 - 15c^3 - 6c^4 - c^5; positive for 1 < c < 1.2."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    v = 1 + 7 * c + 22 * c ** 2 - 15 * c ** 3 - 6 * c ** 4 - c ** 5
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# shadow and cross-family ratio checks

def _uniform_size(fam: SetFamily, what: str) -> int:
    sizes = {m.bit_count() for m in fam.members}
    if len(sizes) > 1:
        raise ValueError(f"{what} must be uniform, got sizes {sorted(sizes)}")
    return sizes.pop() if sizes else 0


def sperner_cross_check(fam_a: SetFamily, fam_b: SetFamily) -> BoundReport:
    """|A|/C(n,a) + |B|/C(n,b) <= 1 for cross-intersecting uniform families."""
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground-set mismatch: {fam_a.n} vs {fam_b.n}")
    n = fam_a.n
    a = _uniform_size(fam_a, "first family")
    b = _uniform_size(fam_b, "second family")
    lhs = Fraction(0)
    if fam_a.members:
        lhs += Fraction(len(fam_a), binom(n, a))
    if fam_b.members:
        lhs += Fraction(len(fam_b), binom(n, b))
    return BoundReport(
        name="sperner_cross", params={"n": n, "a": a, "b": b},
        holds=(lhs <= 1), lhs=lhs, rhs=Fraction(1),
        formula="|A|/C(n,a) + |B|/C(n,b) <= 1")


def shadow_bound_check(fam: SetFamily, ell: int) -> BoundReport:
    """|shadow_ell(F)| / C(n, ell) >= |F| / C(n, k) for k-uniform F, ell < k."""
    k = _uniform_size(fam, "family")
    if fam.members and not 0 <= ell < k:
        raise ValueError(f"need 0 <= ell < k, got ell={ell}, k={k}")
    n = fam.n
    if not fam.members:
        lhs = rhs = Fraction(0)
    else:
        lhs = Fraction(len(shadow(fam, ell)), binom(n, ell))
        rhs = Fraction(len(fam), binom(n, k))
    return BoundReport(
        name="shadow_bound", params={"n": n, "k": k, "ell": ell},
        holds=(lhs >= rhs), lhs=lhs, rhs=rhs,
        formula="|shadow(F)|/C(n,ell) >= |F|/C(n,k)")


def verify_hilton(n: int, a: int, b: int) -> BoundReport:
    """For every cross-intersecting pair, the same-size lexicographic
    segments must be cross-intersecting too; checked over all pairs."""
    if n <= a + b:
        raise ValueError(f"need n > a + b, got n={n}, a={a}, b={b}")
    if math.comb(n, a) + math.comb(n, b) > 22:
        raise CapExceeded(
            f"C({n},{a}) + C({n},{b}) = {math.comb(n, a) + math.comb(n, b)} exceeds 22")
    a_sets = [mask_of(c) for c in combinations(range(1, n + 1), a)]
    b_sets = [mask_of(c) for c in combinations(range(1, n + 1), b)]
    # for each b-set, the a-sets disjoint from it, as an index mask
    disjoint = [sum(1 << i for i, am in enumerate(a_sets) if not am & bm)
                for bm in b_sets]
    # max_allowed[s]: the most b-sets cross-intersecting some s a-sets
    max_allowed = [0] * (len(a_sets) + 1)
    for fam_bits in range(1 << len(a_sets)):
        size = fam_bits.bit_count()
        max_allowed[size] = max(max_allowed[size],
                                sum(not fam_bits & dm for dm in disjoint))
    segments = ((s, t, lex_segment(n, a, s), lex_segment(n, b, t))
                for s in range(1, len(a_sets) + 1) for t in range(1, max_allowed[s] + 1))
    found = next((seg for seg in segments
                  if not is_cross_t_intersecting(seg[2], seg[3], 1)), None)
    return BoundReport(
        name="hilton_compression", params={"n": n, "a": a, "b": b},
        holds=found is None,
        counterexample=None if found is None else (
            *found[:2], *map(family_to_json_dict, found[2:])),
        formula="cross-intersecting sizes stay cross-intersecting as lex segments")
