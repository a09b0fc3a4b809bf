"""Command-line front end: JSON in, JSON out, exact values as decimal strings.

Each subcommand's handler returns its answer, and `run` derives the exit
code from it: 1 when a verdict in it (`holds`, `all_hit` or `recheck`) is
false, 3 when it is a certificate that timed out, 0 otherwise.  A usage or
validation error exits 2, and a resource cap 3.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

from . import bounds, constructions, search, transforms
from .core import (
    ALGEBRAIC_CAP, CapExceeded, SetFamily, complement_family, down_closure,
    family_from_json_dict, family_to_json_dict, is_complex,
    is_cross_t_intersecting, is_t_intersecting, is_u_union, layer,
    mask_of, elements_of,
)
from .walks import brute_hit_count, family_walks_hit, reflection_count, walk_of_set


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_family(path: str) -> SetFamily:
    return family_from_json_dict(_read_json(path))


def _emit(obj: dict, args) -> None:
    if args.format == "table":
        text = "\n".join(f"{k}: {json.dumps(v)}" for k, v in obj.items())
    else:
        text = json.dumps(obj, indent=2)
    out = args.output or "-"
    if out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _elements(text: str) -> tuple[int, ...]:
    """Comma-separated elements, each in [1, ALGEBRAIC_CAP]."""
    elements = tuple(int(x) for x in text.split(",")) if text.strip() else ()
    for e in elements:
        if not 1 <= e <= ALGEBRAIC_CAP:
            raise ValueError(f"element {e} outside [1, {ALGEBRAIC_CAP}]")
    return elements


def _ground(n: int) -> int:
    """A ground-set size read from a flag, in [0, ALGEBRAIC_CAP]."""
    if not 0 <= n <= ALGEBRAIC_CAP:
        raise ValueError(f"--n {n} outside [0, {ALGEBRAIC_CAP}]")
    return n


# ---------------------------------------------------------------------------
# subcommand handlers

def _fraction(text: str) -> Fraction:
    """A rational like 11/10 or 1.1; a zero denominator, or an exponent of
    over 4 digits (Fraction builds 10 to its power), is bad input."""
    exp = text.lower().partition("e")[2].lstrip("+-0_").replace("_", "")
    if len(exp.strip()) > 4:
        raise ValueError(f"{text!r} has a decimal exponent of over 4 digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


# flags whose text names a family file or a fraction, or lists elements
_FLAG_READERS = {"input": _read_family, "input2": _read_family, "c": _fraction,
                 "center": _elements, "set": lambda text: mask_of(_elements(text))}


def _binom_n(n: int) -> int:
    """An --n of an exact count: no binomial of a bound or a closed-form
    walk count has a larger n, so the cap is checked here, naming the flag."""
    if n > bounds.BINOM_CAP:
        raise ValueError(f"--n {n} must not exceed {bounds.BINOM_CAP}")
    return n


def _flags(args, names, what: str) -> list:
    """The values of the flags `names`, in order; a missing one is a usage error."""
    values = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise ValueError(f"{what} needs --{name}")
        values.append(_FLAG_READERS[name](v) if name in _FLAG_READERS else v)
    return values


def _cmd_construct(args) -> dict:
    fn, names = constructions.CONSTRUCTIONS[args.family.replace("-", "_")]
    fam = fn(*_flags(args, names, f"family {args.family}"))
    return family_to_json_dict(fam, args.form)


# predicate -> (function of the --input family and the flags, those flags)
_PREDICATES = {
    "t-intersecting": (is_t_intersecting, ("t",)),
    "u-union": (is_u_union, ("u",)),
    "cross-t-intersecting": (is_cross_t_intersecting, ("input2", "t")),
    "complex": (is_complex, ()),
    "initial": (transforms.is_initial, ()),
}


def _cmd_check(args) -> dict:
    pred, names = _PREDICATES[args.pred]
    values = _flags(args, names, f"check {args.pred}")
    return {"pred": args.pred, "holds": pred(_read_family(args.input), *values)}


# transform op -> function of the --input family and --p giving the output
# family and its operator log, or None when the op has no log
_TRANSFORMS = {
    "shift-initial": lambda fam, p: transforms.make_initial(fam),
    "downshift-complex": lambda fam, p: transforms._downshift_fixpoint(fam),
    "complement": lambda fam, p: (complement_family(fam), None),
    "closure": lambda fam, p: (down_closure(fam), None),
    "translate": lambda fam, p: (transforms.left_translate(fam, p),
                                 transforms.ShiftLog((("translate", p),), 1)),
}


def _cmd_transform(args) -> dict:
    out, log = _TRANSFORMS[args.op](_read_family(args.input), args.p)
    if args.log and log is not None:
        with open(args.log, "w") as fh:
            fh.write(log.to_json() + "\n")
    return family_to_json_dict(out, args.form)


def _cmd_overflow(args) -> dict:
    fam = _read_family(args.input)
    if args.parity == "even":
        return {"parity": "even", "d": args.d,
                "overflow": str(search.overflow_even_of(fam, args.d))}
    value, best_x = search.overflow_odd_of(fam, args.d)
    return {"parity": "odd", "d": args.d, "overflow": str(value), "best_x": best_x}


# walks mode -> (function of the flags giving the output, flags in call order)
_WALKS = {
    "count": (lambda brute, n, *ktab: {"count": str(
        brute_hit_count(n, *ktab) if brute else reflection_count(_binom_n(n), *ktab))},
        ("brute", "n", "k", "t", "a", "b")),
    "trace": (lambda mask, n: {"points": [
        list(p) for p in walk_of_set(mask, _ground(n)).points]}, ("set", "n")),
    "verify-hits": (lambda fam, t: {"t": t, "all_hit": family_walks_hit(fam, t)},
                    ("input", "t")),
}


def _cmd_walks(args) -> dict:
    fn, names = _WALKS[args.mode]
    return fn(*_flags(args, names, f"walks {args.mode}"))


# bound -> (function, flags in call order)
_BOUNDS = {
    "binom": (bounds.binom, ("n", "k")),
    "katona": (bounds.katona_bound, ("n", "u")),
    "ekr": (bounds.ekr_bound, ("n", "k", "t")),
    "hm": (bounds.hm_bound, ("n", "k")),
    "walk-gap": (bounds.walk_gap_bound, ("n", "k", "p")),
    "walk-skip": (bounds.walk_skip_bound, ("n", "k", "p")),
    "d-even-overflow": (bounds.d_even_overflow, ("n", "d")),
    "d-even-gap": (bounds.d_even_gap, ("n", "d")),
    "d2r-gap": (bounds.d2r_gap, ("n", "r")),
    "quintic": (bounds.crossover_quintic, ("c",)),
    "overflow": (bounds.overflow_bound, ("n", "u")),
    "upper-layer": (bounds.upper_layer_bound, ("n", "u")),
    "diversity": (bounds.diversity_formula, ("n", "k")),
    "layer-refined": (bounds.layer_bound_refined, ("n", "t", "ell")),
    "key-ratio": (bounds.key_ratio_holds, ("n", "r", "a", "b")),
    "sperner-cross": (bounds.sperner_cross_check, ("input", "input2")),
    "shadow": (bounds.shadow_bound_check, ("input", "ell")),
}


def _cmd_bound(args) -> dict:
    fn, names = _BOUNDS[args.name]
    values = _flags(args, names, f"bound {args.name}")
    out = fn(*(_binom_n(v) if name == "n" else v for name, v in zip(names, values)))
    if isinstance(out, bounds.BoundReport):
        return out.to_json_dict()
    # integer bounds are exact counts, emitted as decimal strings; the
    # quintic's value is a sign
    value = {"sign": out} if args.name == "quintic" else {"value": str(out)}
    return {"name": args.name, **value}


def _cmd_search(args) -> dict:
    objective = args.objective.replace("-", "_")
    names = search.OBJECTIVES[objective].params
    params = dict(zip(names, _flags(args, names, f"objective {args.objective}")))
    restrict = {"auto": None, "yes": True, "no": False}[args.initial_complexes]
    options = search.SearchOptions(
        time_limit=args.time_limit, workers=args.workers,
        restrict_to_initial_complexes=restrict)
    return search.maximize(objective, params, options).to_json_dict()


def _cmd_recheck(args) -> dict:
    cert = search.SearchCertificate.from_json_dict(_read_json(args.input))
    return {"recheck": search.recheck(cert)}


# ---------------------------------------------------------------------------
# verification suites (fixed grids; see --help text)

def _suite_hilton() -> list[str]:
    failures = []
    for n, a, b in ((5, 2, 2), (4, 1, 2)):
        rep = bounds.verify_hilton(n, a, b)
        if not rep.holds:
            failures.append(f"hilton({n},{a},{b}) violated: {rep.counterexample}")
    return failures


def _random_union_family(rng: random.Random, n: int, u: int,
                         tries: int = 20) -> SetFamily:
    """Grow a u-union family from `tries` random subsets of [n] by rejection."""
    masks: list[int] = []
    for _ in range(tries):
        m = rng.randrange(1 << n)
        if m.bit_count() > u:
            continue
        if all((m | o).bit_count() <= u for o in masks):
            masks.append(m)
    return SetFamily.from_masks(n, masks)


def _suite_facts() -> list[str]:
    failures = []
    rng = random.Random(20240601)
    # layer intersection facts on random union-bounded families
    for _ in range(300):
        n = rng.randrange(2, 8)
        u = rng.randrange(1, n)
        fam = _random_union_family(rng, n, u, rng.randrange(1, 14))
        d, h = u // 2, u % 2
        for i in range(1, u - d + 1):
            li = layer(fam, d + i) if d + i <= n else None
            if li is None or not li.members:
                continue
            t = 2 * i - h
            if t >= 1 and not is_t_intersecting(li, t):
                failures.append(f"layer {d+i} of a {u}-union family not {t}-intersecting")
            for j in range(i, u - d + 1):
                lj = layer(fam, d + j) if d + j <= n else None
                tc = i + j - h
                if lj is None or not lj.members or tc < 1:
                    continue
                if not is_cross_t_intersecting(li, lj, tc):
                    failures.append(
                        f"layers {d+i},{d+j} of a {u}-union family not cross {tc}-intersecting")
    # down-shift intersection monotonicity: all family pairs over a
    # 6-subset universe on [3]
    universe = list(range(6))
    fams = [SetFamily.from_masks(3, [universe[i] for i in range(6) if bits >> i & 1])
            for bits in range(1 << 6)]
    shifted = {i: [transforms.down_shift(f, i) for f in fams] for i in (1, 2, 3)}
    for ai, fam_a in enumerate(fams):
        sa = set(fam_a.members)
        for bi in range(ai, len(fams)):
            base = len(sa & set(fams[bi].members))
            for i in (1, 2, 3):
                da = set(shifted[i][ai].members)
                db = set(shifted[i][bi].members)
                if len(da & db) < base:
                    failures.append("down-shift decreased an intersection")
    # down-shift of balls
    for n in range(2, 6):
        for u in range(1, min(n, 5)):
            for a_mask in range(1 << n):
                ball = constructions.ball(n, elements_of(a_mask), u)
                for i in range(1, n + 1):
                    want = constructions.ball(
                        n, elements_of(a_mask & ~(1 << (i - 1))), u)
                    if transforms.down_shift(ball, i) != want:
                        failures.append(f"down-shift of ball(n={n},u={u}) wrong")
    # complexes: plain vs diametral overflow agree
    for _ in range(100):
        n = rng.randrange(2, 7)
        u = rng.randrange(1, n)
        fam = down_closure(_random_union_family(
            rng, n, min(n, u + 2), rng.randrange(1, 14)))
        sigma = search.katona_overflow_of(fam, u)
        kappa = search.diametral_overflow(fam, u)[0]
        if sigma != kappa:
            failures.append(f"complex with sigma {sigma} != kappa {kappa}")
    return failures


def _suite_sperner() -> list[str]:
    failures = []
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(3, 8)
        a = rng.randrange(1, n // 2 + 1)
        b = rng.randrange(1, n - a)
        fam_a: list[int] = []
        fam_b: list[int] = []
        pool_a = [mask_of(c) for c in combinations(range(1, n + 1), a)]
        pool_b = [mask_of(c) for c in combinations(range(1, n + 1), b)]
        rng.shuffle(pool_a)
        rng.shuffle(pool_b)
        for m in pool_a[:rng.randrange(1, 6)]:
            fam_a.append(m)
        for m in pool_b:
            if all(m & o for o in fam_a):
                fam_b.append(m)
                if len(fam_b) >= 5:
                    break
        rep = bounds.sperner_cross_check(
            SetFamily.from_masks(n, fam_a), SetFamily.from_masks(n, fam_b))
        if not rep.holds:
            failures.append(f"cross ratio bound violated at n={n},a={a},b={b}")
        k = rng.randrange(2, n)
        fam = SetFamily.from_masks(
            n, rng.sample([mask_of(c) for c in combinations(range(1, n + 1), k)],
                          rng.randrange(1, bounds.binom(n, k) + 1)))
        rep = bounds.shadow_bound_check(fam, rng.randrange(0, k))
        if not rep.holds:
            failures.append(f"shadow ratio bound violated at n={n},k={k}")
    return failures


def _suite_reflection() -> list[str]:
    failures = []
    for n in range(0, 13):
        for k in range(0, n + 1):
            for t in range(-4, 5):
                for a in range(0, 4):
                    for b in range(0, 4):
                        try:
                            expected = reflection_count(n, k, t, a, b)
                        except ValueError:
                            continue
                        got = brute_hit_count(n, k, t, a, b)
                        if expected != got:
                            failures.append(
                                f"reflection mismatch at {(n, k, t, a, b)}: "
                                f"{expected} vs {got}")
    return failures


def _suite_katona_small() -> list[str]:
    failures = []
    for n in range(3, 7):
        for u in range(2, n):
            cert = search.maximize("max_union_size", {"n": n, "u": u})
            if cert.optimum != bounds.katona_bound(n, u):
                failures.append(f"max union size at (n={n},u={u}) != bound")
            if not search.recheck(cert):
                failures.append(f"certificate recheck failed at (n={n},u={u})")
    return failures


_SUITES = {
    "hilton": _suite_hilton,
    "facts": _suite_facts,
    "sperner": _suite_sperner,
    "reflection": _suite_reflection,
    "katona-small": _suite_katona_small,
}


def _cmd_verify(args) -> dict:
    failures = _SUITES[args.suite]()
    return {"suite": args.suite, "holds": not failures, "violations": failures[:20]}


# ---------------------------------------------------------------------------
# parser

def _table_flags(p: argparse.ArgumentParser, param_lists, **extra) -> None:
    """Add to `p` each flag that one of `param_lists` names, once: a text
    flag (one that `_FLAG_READERS` reads) as a string, `--brute` as a switch
    and any other as an int, with `extra[name]` as its further keywords."""
    for name in dict.fromkeys(name for names in param_lists for name in names):
        kind = ({"action": "store_true"} if name == "brute" else
                {} if name in _FLAG_READERS else {"type": int})
        p.add_argument(f"--{name}", **kind, **extra.get(name, {}))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="katona",
        description="Exact combinatorics of union-bounded set families.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("-o", "--output", default="-", help="output path or -")
        p.add_argument("--format", choices=("json", "table"), default="json")
        return p

    p = command("construct", _cmd_construct, help="materialize a named family")
    p.add_argument("--family", required=True, choices=sorted(
        name.replace("_", "-") for name in constructions.CONSTRUCTIONS))
    _table_flags(p, (names for _, names in constructions.CONSTRUCTIONS.values()),
                 center={"default": "", "help": "comma-separated elements (ball)"})
    p.add_argument("--form", choices=("sets", "hex"), default="sets")

    p = command("check", _cmd_check, help="evaluate a predicate on a family file")
    p.add_argument("--pred", required=True, choices=tuple(_PREDICATES))
    p.add_argument("--input", required=True)
    _table_flags(p, (names for _, names in _PREDICATES.values()))

    p = command("transform", _cmd_transform, help="apply a compression operator")
    p.add_argument("--op", required=True, choices=tuple(_TRANSFORMS))
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--log", help="write the replayable operator log here")
    p.add_argument("--form", choices=("sets", "hex"), default="sets")

    p = command("overflow", _cmd_overflow, help="overflow of a family file")
    p.add_argument("--parity", required=True, choices=("even", "odd"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--input", required=True)

    p = command("walks", _cmd_walks, help="walk counting and tracing")
    p.add_argument("--mode", required=True, choices=tuple(_WALKS))
    _table_flags(p, (names for _, names in _WALKS.values()),
                 a={"default": 0}, b={"default": 0},
                 set={"default": "", "help": "comma-separated elements (trace)"},
                 input={"help": "family file (verify-hits)"},
                 brute={"help": "count by enumeration instead of the closed form"})

    p = command("bound", _cmd_bound, help="evaluate a named bound")
    p.add_argument("--name", required=True, choices=tuple(_BOUNDS))
    _table_flags(p, (names for _, names in _BOUNDS.values()),
                 c={"help": "rational like 11/10 (quintic)"})

    p = command("search", _cmd_search,
                help="run an exact maximizer, emit a certificate")
    p.add_argument("--objective", required=True, choices=sorted(
        name.replace("_", "-") for name in search.OBJECTIVES))
    _table_flags(p, (obj.params for obj in search.OBJECTIVES.values()))
    p.add_argument("--time-limit", type=float)
    p.add_argument("--workers", type=int, default=1,
                   help="must be 1: the search runs in one process; the flag "
                   "remains so that scripts passing --workers 1 keep working")
    p.add_argument("--initial-complexes", choices=("auto", "yes", "no"),
                   default="auto",
                   help="restrict to initial complexes (auto: per objective)")

    p = command("verify", _cmd_verify, help="run a fixed verification battery", epilog=(
        "grids: hilton = (5,2,2),(4,1,2); facts = layer facts on 300 seeded "
        "union-bounded families (n<=7), down-shift intersections exhaustive "
        "over a 6-set universe on [3], balls n<=5 u<=4 all centers, 100 "
        "seeded complexes sigma=kappa; sperner = 300 seeded instances; "
        "reflection = full grid n<=12 |t|<=4 a,b<=3; katona-small = "
        "2<=u<n<=6 against the closed-form bound"))
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))

    p = command("recheck", _cmd_recheck, help="re-verify a search certificate file")
    p.add_argument("--input", required=True)

    return ap


def run(argv=None) -> int:
    """Run one subcommand and emit its answer; return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        answer = args.handler(args)
        _emit(answer, args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any(answer.get(key) is False for key in ("holds", "all_hit", "recheck")):
        return 1
    return 3 if answer.get("timed_out") is True else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
