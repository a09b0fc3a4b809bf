#!/usr/bin/env python3
"""Exact even-overflow maxima on a small (n, d) grid.

For each pair this runs the certified search over initial complexes and
prints the optimum next to the closed form C(n-2, d-1), its proved-regime
flag (n >= 6d), the base-[4] family's overflow, which overtakes the closed
form once n < 4d - 1, and max_s, the best overflow of the near-base rungs
{S : |S \\ [2s]| <= d - s}, s = 1..d (`near_base_overflow`).  Rows whose
optimum exceeds either closed form, or differs from max_s, are marked: the
base-[4] family is not optimal at (10, 4), where the optimum is 95 against
its 81, and the base-[6] rung (s = 3) reaches it.
"""

import argparse

from katona import (d_even_overflow, maximize, near_base_overflow, overflow_bound,
                    recheck)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--max-d", type=int, default=3)
    args = ap.parse_args()

    print(f"{'n':>3} {'d':>3} {'optimum':>8} {'max_s':>6} {'C(n-2,d-1)':>11} "
          f"{'regime':>7} {'base-[4]':>9} {'nodes':>8}")
    for d in range(1, args.max_d + 1):
        for n in range(2 * d + 2, args.max_n + 1):
            cert = maximize("overflow_even", {"n": n, "d": d})
            assert cert.proven_optimal and recheck(cert)
            rep = overflow_bound(n, 2 * d)
            dval = d_even_overflow(n, d) if d >= 2 and n >= 4 else "-"
            best = max(near_base_overflow(n, d, s) for s in range(1, d + 1))
            marker = ""
            if cert.optimum > rep.value:
                marker = "  <- exceeds the closed form"
            if dval != "-" and cert.optimum > dval:
                marker += "  <- exceeds base-[4]"
            if cert.optimum != best:
                marker += "  <- differs from max_s"
            print(f"{n:>3} {d:>3} {cert.optimum:>8} {best:>6} {rep.value:>11} "
                  f"{str(rep.in_proved_regime):>7} {str(dval):>9} "
                  f"{cert.nodes_explored:>8}{marker}")


if __name__ == "__main__":
    main()
