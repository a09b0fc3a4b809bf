#!/usr/bin/env python3
"""Chart the maximal diametral overflow for tiny (n, u).

Exhaustively maximizes min_A |F \\ ball_A| over families of diameter <= u
and prints the optimum next to the conjectured ceilings C(n-2, d-1)
(even u) and 2 C(n-3, d-1) (odd u).  Ground sets stay tiny: the search
enumerates every maximal bounded-diameter family.
"""

import argparse

from katona import maximize, overflow_bound, recheck


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5,
                    help="exhaustive over 2^(2^n)-ish spaces; keep tiny")
    args = ap.parse_args()

    print(f"{'n':>3} {'u':>3} {'kappa-max':>10} {'ceiling':>8} {'witness size':>13}")
    for n in range(3, args.max_n + 1):
        for u in range(2, n):
            cert = maximize("diametral_overflow", {"n": n, "u": u})
            assert cert.proven_optimal and recheck(cert)
            ceiling = overflow_bound(n, u).value
            note = ""
            if cert.optimum > ceiling:
                note = "  <- above the conjectured ceiling (small-n regime)"
            print(f"{n:>3} {u:>3} {cert.optimum:>10} {ceiling:>8} "
                  f"{len(cert.witness):>13}{note}")


if __name__ == "__main__":
    main()
