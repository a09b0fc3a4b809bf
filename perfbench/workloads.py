"""The four benchmark workloads: inputs made from a seed, timed calls, checks.

Every call reaches katona through attribute lookups on its module objects
(``mods["search"].maximize``), never through names bound at set-up, so the
traced run sees the same calls through its wrappers.  A call returns a
record for the per-layer figures or raises; any exception, including a
`Mismatch` with a reference, counts as a failed call.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

# solved initial-complex rungs: where a change to the layered DFS shows
LADDER = (
    ("overflow_even", {"n": 12, "d": 3}),
    ("overflow_even", {"n": 13, "d": 3}),
    ("overflow_even", {"n": 14, "d": 3}),
    ("max_union_size", {"n": 10, "u": 6}),
    ("upper_layers", {"n": 11, "u": 5}),
    ("max_diameter_size", {"n": 10, "u": 6}),
)
CLI_RUNG = ("max_union_size", {"n": 10, "u": 6})
CLI_ARGV = ["search", "--objective", "max-union-size", "--n", "10", "--u", "6",
            "--workers", "1"]
# d = 4 headline rungs, unproven today: where stronger pruning shows
FRONTIER = (
    ("overflow_even", {"n": 10, "d": 4}),
    ("overflow_even", {"n": 12, "d": 4}),
    ("max_union_size", {"n": 10, "u": 7}),
)
FRONTIER_TIME_LIMIT = 2.0
# unrestricted Bron-Kerbosch engine: should not move with the layered DFS
EXHAUSTIVE = (
    ("diversity", {"n": 9, "k": 3}),
    ("diametral_overflow", {"n": 6, "u": 3}),
    ("overflow_odd", {"n": 7, "d": 2}),
)
# rungs run more than once per pass, so that a pass's median call is one of
# several calls of one rung: upper_layers on the ladder, overflow_odd on
# exhaustive; the 90th percentile call of a pass is (14,3) and diversity
REPEATS = {"upper_layers_11_5": 3, "overflow_odd_7_2": 4}
WARM_UP = {
    "ladder": ("overflow_even", {"n": 8, "d": 3}),
    "frontier": ("overflow_even", {"n": 8, "d": 3}),
    "exhaustive": ("overflow_odd", {"n": 6, "d": 2}),
}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class Mismatch(Exception):
    """An output differs from its reference or breaks a checked identity."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def rung_name(objective: str, params: dict) -> str:
    return "_".join([objective, *(str(v) for v in params.values())])


SOLVED_RUNGS = tuple(rung_name(o, p) for o, p in LADDER + EXHAUSTIVE)
TIMED_RUNGS = tuple(rung_name(o, p) for o, p in LADDER + FRONTIER + EXHAUSTIVE)


class Workload:
    """Named calls to run once per pass, with their inputs for hashing."""

    def __init__(self, name: str, calls: list, inputs, warm_up, before_pass=None):
        self.name = name
        self.calls = calls            # [(call name, zero-argument callable)]
        self.inputs = inputs          # JSON-serialisable description of the inputs
        self.warm_up = warm_up
        self.before_pass = before_pass or (lambda: None)


# ---------------------------------------------------------------------------
# certificates

def closed_form(mods: dict, objective: str, params: dict) -> int | None:
    """The known closed-form optimum of a solved rung, where one applies."""
    bounds = mods["bounds"]
    n = params["n"]
    if objective == "overflow_even" and params["d"] == 3:
        value = bounds.overflow_bound(n, 6).value
        expect(value == comb(n - 2, 2), f"overflow_bound({n}, 6) != C(n-2, 2)")
        return value
    if objective in ("max_union_size", "max_diameter_size"):
        return bounds.katona_bound(n, params["u"])
    if objective == "upper_layers":
        return bounds.upper_layer_bound(n, params["u"]).value
    if objective == "diversity":
        return bounds.diversity_formula(n, params["k"]).value
    return None


def _json_round_trip(mods: dict, cert) -> None:
    text = json.dumps(cert.to_json_dict())
    back = mods["search"].SearchCertificate.from_json_dict(json.loads(text))
    expect(back == cert, f"{cert.objective}: certificate changed in a JSON round trip")


def check_solved(mods: dict, cert, ref: dict) -> None:
    """The certificate matches its reference, ignoring elapsed_ms and nodes."""
    name = rung_name(ref["objective"], ref["params"])
    expect(mods["search"].recheck(cert), f"{name}: recheck failed")
    for key in ("objective", "params", "optimum", "proven_optimal", "maximizers"):
        expect(getattr(cert, key) == ref[key],
               f"{name}: {key} {getattr(cert, key)!r} != reference {ref[key]!r}")
    witness = [int(h, 16) for h in ref["witness"]["hex"]]
    expect(list(cert.witness.members) == witness, f"{name}: witness differs")
    expected = closed_form(mods, cert.objective, cert.params)
    expect(expected is None or cert.optimum == expected,
           f"{name}: optimum {cert.optimum} != closed form {expected}")
    _json_round_trip(mods, cert)


def frontier_floor(mods: dict, objective: str, params: dict) -> int:
    """The value of the seed families the search starts from."""
    cons, core = mods["constructions"], mods["core"]
    n = params["n"]
    if objective == "overflow_even":
        d = params["d"]
        fams = [f for f in (cons.b_family(n, d), cons.d_even(n, d))
                if core.is_u_union(f, 2 * d)]
        return max(len(core.at_least(f, d + 1)) for f in fams)
    size = len(cons.katona(n, params["u"]))
    expect(size == mods["bounds"].katona_bound(n, params["u"]), "katona size")
    return size


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _options(mods: dict, time_limit=None):
    return mods["search"].SearchOptions(time_limit=time_limit, workers=1)


def _solved_call(mods: dict, refs: dict, objective: str, params: dict):
    name = rung_name(objective, params)
    ref = refs[name]

    def call():
        cert = mods["search"].maximize(objective, params, _options(mods))
        check_solved(mods, cert, ref)
        return {"cert": cert}
    return [(name, call)] * REPEATS.get(name, 1)


def _frontier_call(mods: dict, objective: str, params: dict, floor: int):
    name = rung_name(objective, params)

    def call():
        cert = mods["search"].maximize(
            objective, params, _options(mods, FRONTIER_TIME_LIMIT))
        expect(mods["search"].recheck(cert), f"{name}: recheck failed")
        expect(cert.optimum >= floor, f"{name}: {cert.optimum} below seed {floor}")
        expect(cert.proven_optimal != cert.timed_out, f"{name}: proven and timed out")
        _json_round_trip(mods, cert)
        return {"cert": cert}
    return name, call


def _cli_call(mods: dict, ref: dict, out_dir: Path):
    cert_path = out_dir / "cli-certificate.json"
    verdict_path = out_dir / "cli-recheck.json"

    def call():
        cli = mods["cli"]
        code = cli.run(CLI_ARGV + ["-o", str(cert_path)])
        expect(code == 0, f"cli search exited {code}")
        code = cli.run(["recheck", "--input", str(cert_path), "-o", str(verdict_path)])
        expect(code == 0, f"cli recheck exited {code}")
        with open(verdict_path) as fh:
            expect(json.load(fh) == {"recheck": True}, "cli recheck verdict")
        with open(cert_path) as fh:
            cert = mods["search"].SearchCertificate.from_json_dict(json.load(fh))
        check_solved(mods, cert, ref)
        return {"cert": cert}
    return "cli_" + rung_name(*CLI_RUNG), call


def _warm_up(mods: dict, name: str):
    objective, params = WARM_UP[name]
    return lambda: mods["search"].maximize(objective, params, _options(mods))


def build_ladder(mods: dict, seed: int, out_dir: Path) -> Workload:
    refs = load_reference()["solved"]
    calls = [c for o, p in LADDER for c in _solved_call(mods, refs, o, p)]
    calls.append(_cli_call(mods, refs[rung_name(*CLI_RUNG)], out_dir))
    inputs = {"rungs": [[o, p] for o, p in LADDER], "cli": CLI_ARGV}
    return Workload("ladder", calls, inputs, _warm_up(mods, "ladder"))


def build_frontier(mods: dict, seed: int, out_dir: Path) -> Workload:
    refs = load_reference()["frontier_floor"]
    calls = []
    for objective, params in FRONTIER:
        floor = frontier_floor(mods, objective, params)
        name = rung_name(objective, params)
        expect(floor == refs[name], f"{name}: seed value {floor} != {refs[name]}")
        calls.append(_frontier_call(mods, objective, params, floor))
    inputs = {"rungs": [[o, p] for o, p in FRONTIER],
              "time_limit": FRONTIER_TIME_LIMIT}
    return Workload("frontier", calls, inputs, _warm_up(mods, "frontier"))


def build_exhaustive(mods: dict, seed: int, out_dir: Path) -> Workload:
    refs = load_reference()["solved"]
    calls = [c for o, p in EXHAUSTIVE for c in _solved_call(mods, refs, o, p)]
    inputs = {"rungs": [[o, p] for o, p in EXHAUSTIVE]}
    return Workload("exhaustive", calls, inputs, _warm_up(mods, "exhaustive"))


# ---------------------------------------------------------------------------
# algebra: seeded small jobs on the non-search modules, plus a large slice

# calls per pass of each kind; the counts make a pass's median call a shift
# call and its 90th percentile call one of the large slice
SMALL_JOBS = (("bounds", 1), ("walks", 2), ("downshift", 2), ("predicates", 2),
              ("shift", 8), ("constructions", 2))
SHIFT_BATCH = 4   # families per shift call, so a call's time averages over sizes
LARGE_N, LARGE_U = 16, 8


def _sample(rng: random.Random, pool: list[int], size: int) -> int:
    return sum(1 << b for b in rng.sample(pool, size))


def random_union_family(rng: random.Random, n: int, u: int) -> list[int]:
    """A u-union family: 60 draws from a Katona family anchored at a random
    element, plus random larger sets kept when compatible."""
    d = u // 2
    anchor = rng.randrange(n) if u % 2 else None
    others = [b for b in range(n) if b != anchor]
    masks = set()
    for _ in range(60):
        m = _sample(rng, others, rng.randint(0, d))
        if anchor is not None and rng.random() < 0.5:
            m |= 1 << anchor
        masks.add(m)
    masks = sorted(masks)
    for _ in range(40):
        m = _sample(rng, list(range(n)), rng.randint(d + 1, u))
        if all((m | o).bit_count() <= u for o in masks):
            masks.append(m)
    return masks


def random_intersecting_family(rng: random.Random, n: int, t: int) -> list[int]:
    """Sets that all contain one random t-set, so the family is t-intersecting."""
    core_set = _sample(rng, list(range(n)), t)
    rest = [b for b in range(n) if not core_set >> b & 1]
    return sorted({core_set | _sample(rng, rest, rng.randint(0, len(rest) // 2))
                   for _ in range(rng.randint(10, 60))})


def _union_input(rng: random.Random, i: int) -> dict:
    """The i-th family of a kind: n and u cycle over 8..14 and 3..6, so the
    seed changes the members but not the sizes."""
    n, u = 8 + i % 7, 3 + i % 4
    return {"n": n, "u": u, "masks": random_union_family(rng, n, u)}


def _walk_inputs(mods: dict, rng: random.Random, count: int) -> list[list[int]]:
    """Grid points that satisfy the reflection hypotheses, at most 13 steps."""
    out = []
    while len(out) < count:
        n = rng.randint(8, 13)
        k = rng.randint(1, n - 1)
        t = rng.randint(-2, 3)
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        try:
            mods["walks"].reflection_count(n, k, t, a, b)
        except ValueError:
            continue
        out.append([n, k, t, a, b])
    return out


def _bounds_input(rng: random.Random) -> dict:
    n = rng.randint(10, 16)
    while True:
        r, a, b = rng.randint(2, n // 2), rng.randint(1, 4), rng.randint(1, 4)
        if r > b and r + a <= n and n - r + b - a >= r:
            break
    return {"n": n, "u": rng.randint(2, n - 1), "k": rng.randint(2, (n - 1) // 2),
            "d": rng.randint(2, 7), "ratio": [r, a, b]}


def _constructions_input(rng: random.Random) -> dict:
    n = LARGE_N
    return {"u": rng.randint(3, 4), "odd_u": 3, "x": rng.randint(1, n),
            "k": rng.randint(2, 3), "t": rng.randint(1, 2), "d": rng.randint(2, 3),
            "r": 3, "center": sorted(rng.sample(range(1, n + 1), 3)),
            "lex": [rng.randint(2, 3), rng.randint(1, 120)]}


def _shift_job(mods, batch):
    core, tr = mods["core"], mods["transforms"]
    ops = passes = 0
    for inp in batch:
        fam = core.SetFamily.from_masks(inp["n"], inp["masks"])
        init, log = tr.make_initial(fam)
        expect(tr.replay(fam, log) == init, "replay of the shift log differs")
        expect(tr.is_initial(init), "make_initial result is not initial")
        expect(len(init) == len(fam) and core.is_u_union(init, inp["u"]),
               "make_initial changed the size or broke the union bound")
        back = tr.ShiftLog.from_json_dict(json.loads(json.dumps(log.to_json_dict())))
        expect(back == log, "shift log changed in a JSON round trip")
        ops, passes = ops + len(log.ops), passes + log.passes
    return {"shift_ops": ops, "passes": passes}


def _downshift_job(mods, inp):
    core, tr = mods["core"], mods["transforms"]
    fam = core.SetFamily.from_masks(inp["n"], inp["masks"])
    cplx = tr.make_complex_by_downshift(fam)
    expect(core.is_complex(cplx), "down-shift fixpoint is not a complex")
    expect(len(cplx) == len(fam) and core.is_u_union(cplx, inp["u"]),
           "down-shift changed the size or broke the union bound")
    return {}


def _predicates_job(mods, inp):
    core = mods["core"]
    n, u, t = inp["n"], inp["u"], inp["t"]
    fam = core.SetFamily.from_masks(n, inp["masks"])
    inter = core.SetFamily.from_masks(n, inp["intersecting"])
    expect(core.is_u_union(fam, u), "sampled family is not u-union")
    expect(core.is_t_intersecting(core.complement_family(fam), n - u),
           "complements of a u-union family are not (n-u)-intersecting")
    closure = core.down_closure(fam)
    expect(core.is_complex(closure) and core.is_u_union(closure, u),
           "down-closure is not a u-union complex")
    expect(core.is_t_intersecting(inter, t) and core.is_cross_t_intersecting(inter, inter, t),
           "family through a common t-set is not t-intersecting")
    text = core.family_to_json(fam, form="hex")
    expect(core.family_from_json(text) == fam, "family changed in a JSON round trip")
    return {}


def _walks_job(mods, points):
    walks = mods["walks"]
    for n, k, t, a, b in points:
        expect(walks.reflection_count(n, k, t, a, b) == walks.brute_hit_count(n, k, t, a, b),
               f"reflection_count != brute_hit_count at {(n, k, t, a, b)}")
    return {}


def _bounds_job(mods, inp):
    b = mods["bounds"]
    n, u, k, d = inp["n"], inp["u"], inp["k"], inp["d"]
    r, ra, rb = inp["ratio"]
    values = [b.katona_bound(n, u), b.ekr_bound(n, k, 1), b.hm_bound(n, k),
              b.overflow_bound(n, u).value, b.upper_layer_bound(n, u).value,
              b.diversity_formula(n, k).value, b.walk_gap_bound(n, k, 0),
              b.layer_bound_refined(n, 1, k).value, b.d2r_gap(n, 3)]
    expect(all(isinstance(v, int) for v in values), "a bound is not an int")
    expect(b.hm_bound(n, k) <= b.ekr_bound(n, k, 1), "Hilton-Milner exceeds EKR")
    expect(b.key_ratio_holds(n, r, ra, rb).holds,
           f"key ratio fails inside its theorem regime at {(n, r, ra, rb)}")
    expect(b.d_even_gap(n, d) == b.d_even_gap_closed_form(n, d), "d_even gap identity")
    return {}


def _constructions_job(mods, inp):
    cons, core, b = mods["constructions"], mods["core"], mods["bounds"]
    n, u, k, t, d, r = LARGE_N, inp["u"], inp["k"], inp["t"], inp["d"], inp["r"]
    expect(len(cons.katona(n, u)) == b.katona_bound(n, u), "katona size")
    expect(len(cons.katona_x(n, inp["odd_u"], inp["x"])) == b.katona_bound(n, inp["odd_u"]),
           "katona_x size")
    expect(len(cons.ball(n, tuple(inp["center"]), u)) == b.katona_bound(n, u), "ball size")
    expect(len(cons.full_star(n, k, t)) == b.ekr_bound(n, k, t), "full_star size")
    expect(len(cons.hilton_milner(n, k)) == b.hm_bound(n, k), "hilton_milner size")
    expect(len(core.at_least(cons.d_even(n, d), d + 1)) == b.d_even_overflow(n, d),
           "d_even overflow")
    expect(len(core.at_least(cons.d_2r(n, r), r)) == b.d2r_upper_count(n, r),
           "d_2r upper count")
    lk, m = inp["lex"]
    seg = cons.lex_segment(n, lk, m)
    expect(sorted(cons.lex_rank(n, lk, s) for s in seg.members) == list(range(m)),
           "lex_segment is not the first m sets")
    for fam in (cons.katona_star(n, u), cons.triangle(n, k), cons.b_family(n, d),
                cons.g_family(n, d), cons.d_odd5(n, d)):
        expect(core.family_from_json_dict(core.family_to_json_dict(fam)) == fam,
               "family changed in a JSON round trip")
    return {}


SMALL = {"shift": _shift_job, "downshift": _downshift_job,
         "predicates": _predicates_job, "walks": _walks_job,
         "bounds": _bounds_job, "constructions": _constructions_job}


def _algebra_inputs(mods: dict, rng: random.Random) -> dict:
    inputs = {}
    for kind, count in SMALL_JOBS:
        items = []
        for i in range(count):
            if kind == "shift":
                items.append([_union_input(rng, SHIFT_BATCH * i + j)
                              for j in range(SHIFT_BATCH)])
            elif kind == "downshift":
                items.append(_union_input(rng, i))
            elif kind == "predicates":
                item = _union_input(rng, i)
                item["t"] = rng.randint(1, 3)
                item["intersecting"] = random_intersecting_family(rng, item["n"], item["t"])
                items.append(item)
            elif kind == "walks":
                items.append(_walk_inputs(mods, rng, 3))
            elif kind == "bounds":
                items.append(_bounds_input(rng))
            else:
                items.append(_constructions_input(rng))
        inputs[kind] = items
    inputs["anchor"] = rng.randint(2, LARGE_N)
    return inputs


def build_algebra(mods: dict, seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    inputs = _algebra_inputs(mods, rng)
    core, tr, cons, search = (mods["core"], mods["transforms"], mods["constructions"],
                              mods["search"])
    big = cons.katona(LARGE_N, LARGE_U)
    anchored = cons.katona_x(LARGE_N, LARGE_U - 1, inputs["anchor"])
    big_cert = search.SearchCertificate(
        objective="max_union_size", params={"n": LARGE_N, "u": LARGE_U},
        optimum=len(big), witness=big, proven_optimal=False,
        reduction_used="none", nodes_explored=0, elapsed_ms=0)

    def large_is_u_union():
        expect(core.is_u_union(big, LARGE_U), "katona(16, 8) is not 8-union")
        return {}

    def large_make_initial():
        init, log = tr.make_initial(big)
        expect(init == big and not log.ops, "katona(16, 8) is not initial")
        return {"shift_ops": len(log.ops), "passes": log.passes}

    def large_shift_anchor():
        init, log = tr.make_initial(anchored)
        expect(init == cons.katona(LARGE_N, LARGE_U - 1),
               "shifting an anchored Katona family does not give katona(16, 7)")
        expect(tr.is_initial(init), "shifted family is not initial")
        return {"shift_ops": len(log.ops), "passes": log.passes}

    def large_recheck():
        expect(search.recheck(big_cert), "katona(16, 8) certificate fails recheck")
        return {}

    def large_json():
        _json_round_trip(mods, big_cert)
        text = core.family_to_json(anchored)
        expect(core.family_from_json(text) == anchored, "large family JSON round trip")
        return {}

    calls = []
    for kind, _ in SMALL_JOBS:
        for i, item in enumerate(inputs[kind]):
            calls.append((f"{kind}_{i}",
                          lambda job=SMALL[kind], item=item: job(mods, item)))
    calls += [("large_is_u_union", large_is_u_union),
              ("large_make_initial", large_make_initial),
              ("large_shift_anchor", large_shift_anchor),
              ("large_recheck", large_recheck),
              ("large_json", large_json)]

    def warm_up():
        for kind, _ in SMALL_JOBS:
            SMALL[kind](mods, inputs[kind][0])

    def before_pass():
        # brute_hit_count memoises its enumerations; clearing the memo makes
        # every pass pay for them, as a caller in a fresh process would
        cache = getattr(mods["walks"], "_brute_hits", None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()

    return Workload("algebra", calls, inputs, warm_up, before_pass)


FACTORIES = {"ladder": build_ladder, "frontier": build_frontier,
             "exhaustive": build_exhaustive, "algebra": build_algebra}
