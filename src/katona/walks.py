"""Lattice-path view of subsets and reflection-principle counting.

The walk of R subset [n] takes n unit steps from the origin, going up at
step i iff i is in R.  A walk of a k-set ends at (n - k, k).  Counting the
walks between two points that touch the line y = x + t has the closed form
C(total steps, up steps after reflecting the start across the line); the
brute-force enumerator here is the independent oracle for that formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bounds import binom
from .core import SetFamily, CapExceeded

BRUTE_STEP_CAP = 20


@dataclass(frozen=True)
class WalkTrace:
    """Grid points of a walk, starting at (0, 0), one point per step taken."""

    points: tuple[tuple[int, int], ...]

    @property
    def end(self) -> tuple[int, int]:
        return self.points[-1]


def _check_subset(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} is not a subset of [1, {n}]")


def walk_of_set(mask: int, n: int) -> WalkTrace:
    """Walk with step i going up iff element i is present."""
    _check_subset(mask, n)
    x = y = 0
    pts = [(0, 0)]
    for i in range(n):
        if (mask >> i) & 1:
            y += 1
        else:
            x += 1
        pts.append((x, y))
    return WalkTrace(tuple(pts))


def hits_line(mask: int, n: int, t: int) -> bool:
    """Does the walk of the set touch y = x + t (origin and endpoint included)?"""
    _check_subset(mask, n)
    x = y = 0
    if y == x + t:
        return True
    for i in range(n):
        if (mask >> i) & 1:
            y += 1
        else:
            x += 1
        if y == x + t:
            return True
    return False


def _check_reflection_hypotheses(n: int, k: int, t: int, a: int, b: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if a < 0 or b < 0:
        raise ValueError(f"start point must be in the grid, got ({a}, {b})")
    if a > n - k or b > k:
        raise ValueError(f"no monotone walks from ({a}, {b}) to ({n - k}, {k})")
    if b > a + t:
        raise ValueError(f"start ({a}, {b}) lies above the line y = x + {t}")
    if b == a + t:
        return  # start on the line: every walk hits and the formula is exact
    if k > n - k + t:
        raise ValueError(f"endpoint ({n - k}, {k}) lies above the line y = x + {t}")
    if a + t > k:
        raise ValueError(f"need a + t <= k, got a={a}, t={t}, k={k}")


def reflection_count(n: int, k: int, t: int, a: int, b: int) -> int:
    """Walks from (a, b) to (n - k, k) touching y = x + t: C(n - a - b, k - a - t).

    Reflecting (a, b) across the line gives (b - t, a + t); walks from there
    to the endpoint biject with the touching walks.  Negative t is allowed.
    The count is `bounds.binom`, so its n is capped at `BINOM_CAP`.
    """
    _check_reflection_hypotheses(n, k, t, a, b)
    return binom(n - a - b, k - a - t)


@lru_cache(maxsize=None)
def _brute_hits(steps: int, ups: int, offset: int) -> int:
    """Enumerate all C(steps, ups) up-step placements; count walks reaching
    height-minus-width == offset at some prefix."""
    count = 0
    for up_positions in combinations(range(steps), ups):
        d = 0
        if d == offset:
            count += 1
            continue
        upset = set(up_positions)
        for s in range(steps):
            d += 1 if s in upset else -1
            if d == offset:
                count += 1
                break
    return count


def brute_hit_count(n: int, k: int, t: int, a: int, b: int) -> int:
    """Oracle for reflection_count: walk enumeration, no formula.

    Walks from (a, b) to (n - k, k) touch y = x + t iff the relative
    excursion (ups - rights) reaches t + a - b.  Returns 0 when no walks
    exist at all.
    """
    steps = n - a - b
    if steps > BRUTE_STEP_CAP:
        raise CapExceeded(f"{steps} steps exceeds the brute cap of {BRUTE_STEP_CAP}")
    ups = k - b
    if steps < 0 or ups < 0 or ups > steps:
        return 0
    return _brute_hits(steps, ups, t + a - b)


def family_walks_hit(fam: SetFamily, t: int) -> bool:
    """True iff every member's walk touches y = x + t."""
    return all(hits_line(m, fam.n, t) for m in fam.members)
