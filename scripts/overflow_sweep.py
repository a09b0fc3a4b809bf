#!/usr/bin/env python3
"""Exact even-overflow maxima on a small (n, d) grid.

For each pair this runs the certified search over initial complexes and
prints the optimum next to the closed form C(n-2, d-1), its proved-regime
flag (n >= 6d), and the base-[4] family's overflow, which overtakes the
closed form once n < 4d - 1.  Rows whose optimum exceeds either value are
marked: the base-[4] family is not optimal at (10, 4), where the optimum is
95 against its 81.
"""

import argparse

from katona import d_even_overflow, maximize, overflow_bound, recheck


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--max-d", type=int, default=3)
    args = ap.parse_args()

    print(f"{'n':>3} {'d':>3} {'optimum':>8} {'C(n-2,d-1)':>11} "
          f"{'regime':>7} {'base-[4]':>9} {'nodes':>8}")
    for d in range(1, args.max_d + 1):
        for n in range(2 * d + 2, args.max_n + 1):
            cert = maximize("overflow_even", {"n": n, "d": d})
            assert cert.proven_optimal and recheck(cert)
            rep = overflow_bound(n, 2 * d)
            dval = d_even_overflow(n, d) if d >= 2 and n >= 4 else "-"
            marker = ""
            if cert.optimum > rep.value:
                marker = "  <- exceeds the closed form"
            if dval != "-" and cert.optimum > dval:
                marker += "  <- exceeds base-[4]"
            print(f"{n:>3} {d:>3} {cert.optimum:>8} {rep.value:>11} "
                  f"{str(rep.in_proved_regime):>7} {str(dval):>9} "
                  f"{cert.nodes_explored:>8}{marker}")


if __name__ == "__main__":
    main()
