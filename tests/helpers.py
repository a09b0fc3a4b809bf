"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import random

from katona import SetFamily
from katona.cli import _random_union_family as random_u_union_family  # noqa: F401


def random_family(rng: random.Random, n: int, max_members: int = 12) -> SetFamily:
    count = rng.randrange(0, max_members + 1)
    return SetFamily.from_masks(
        n, (rng.randrange(1 << n) for _ in range(count)))


def random_t_intersecting_family(rng: random.Random, n: int, t: int,
                                 tries: int = 20) -> SetFamily:
    masks: list[int] = []
    for _ in range(tries):
        m = rng.randrange(1 << n)
        if m.bit_count() < t:
            continue
        if all((m & o).bit_count() >= t for o in masks):
            masks.append(m)
    return SetFamily.from_masks(n, masks)


def random_cross_pair(rng: random.Random, n: int, t: int,
                      tries: int = 16) -> tuple[SetFamily, SetFamily]:
    a: list[int] = []
    b: list[int] = []
    for _ in range(tries):
        m = rng.randrange(1 << n)
        side = rng.random() < 0.5
        other = b if side else a
        if all((m & o).bit_count() >= t for o in other):
            (a if side else b).append(m)
    return SetFamily.from_masks(n, a), SetFamily.from_masks(n, b)
