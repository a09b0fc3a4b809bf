import dataclasses
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from katona import b_family, binom, bounds, cli, family_from_json, katona, maximize
from katona.cli import _BOUNDS, _PREDICATES, _SUITES, _TRANSFORMS, _WALKS, run
from katona.constructions import CONSTRUCTIONS
from katona.search import OBJECTIVES


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_construct_katona(capsys):
    code, obj = run_json(capsys, ["construct", "--family", "katona",
                                  "--n", "5", "--u", "2"])
    assert code == 0
    assert len(obj["sets"]) == 6
    assert family_from_json(json.dumps(obj)) == katona(5, 2)


def test_construct_round_trip_is_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["construct", "--family", "g-family", "--n", "7", "--d", "2"]
    assert run(argv + ["-o", str(out1)]) == 0
    assert run(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # transform to a file and back: canonical encoding keeps bytes stable
    mid = tmp_path / "c.json"
    assert run(["transform", "--op", "closure", "--input", str(out1),
                "-o", str(mid)]) == 0
    assert run(["transform", "--op", "closure", "--input", str(mid),
                "-o", str(out2)]) == 0
    assert mid.read_bytes() == out2.read_bytes()
    capsys.readouterr()


# malformed family JSON: bad input (exit 2), never a traceback or exit 1
BAD_FAMILIES = ({"n": 6, "sets": "abc"}, {"n": 6, "sets": [[1.5]]},
                {"n": 6, "sets": [[None]]}, {"n": 6, "sets": [[True]]},
                {"n": 6, "hex": [3]}, {"n": None, "sets": []},
                # int(h, 16) would read each of these as 31
                {"n": 6, "hex": ["0x1f"]}, {"n": 6, "hex": [" 1f "]},
                {"n": 6, "hex": ["1_f"]}, {"n": 6, "hex": ["+1f"]})


def test_check_exit_codes(tmp_path):
    fam = tmp_path / "b.json"
    assert run(["construct", "--family", "b-family", "--n", "6", "--d", "2",
                "-o", str(fam)]) == 0
    assert run(["check", "--pred", "u-union", "--u", "4",
                "--input", str(fam), "-o", str(tmp_path / "x.json")]) == 0
    assert run(["check", "--pred", "u-union", "--u", "2",
                "--input", str(fam), "-o", str(tmp_path / "y.json")]) == 1
    assert run(["check", "--pred", "complex", "--input", str(fam),
                "-o", str(tmp_path / "z.json")]) == 0
    for bad in BAD_FAMILIES:
        fam.write_text(json.dumps(bad))
        assert run(["check", "--pred", "complex", "--input", str(fam)]) == 2, bad


def test_check_cross(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["construct", "--family", "full-star", "--n", "6", "--k", "3",
         "--t", "2", "-o", str(a)])
    run(["construct", "--family", "full-star", "--n", "6", "--k", "4",
         "--t", "2", "-o", str(b)])
    assert run(["check", "--pred", "cross-t-intersecting", "--t", "2",
                "--input", str(a), "--input2", str(b),
                "-o", str(tmp_path / "o.json")]) == 0


def test_transform_shift_initial_with_log(tmp_path, capsys):
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({"n": 3, "sets": [[2, 3]]}))
    logp = tmp_path / "log.json"
    code, obj = run_json(capsys, ["transform", "--op", "shift-initial",
                                  "--input", str(fam), "--log", str(logp)])
    assert code == 0
    assert obj["sets"] == [[1, 2]]
    log = json.loads(logp.read_text())
    assert log["ops"] and log["ops"][0]["kind"] == "shift"


def test_overflow_subcommand(tmp_path, capsys):
    fam = tmp_path / "g.json"
    run(["construct", "--family", "g-family", "--n", "8", "--d", "2",
         "-o", str(fam)])
    capsys.readouterr()
    code, obj = run_json(capsys, ["overflow", "--parity", "odd", "--d", "2",
                                  "--input", str(fam)])
    assert code == 0
    assert obj["overflow"] == "10" and obj["best_x"] == 1


def test_even_overflow_subcommand_matches_its_bound(tmp_path, capsys):
    # the overflow of the base-[4] family is the closed form d_even_overflow
    fam = tmp_path / "d.json"
    run(["construct", "--family", "d-even", "--n", "8", "--d", "3", "-o", str(fam)])
    capsys.readouterr()
    code, obj = run_json(capsys, ["overflow", "--parity", "even", "--d", "3",
                                  "--input", str(fam)])
    assert code == 0 and obj == {"parity": "even", "d": 3, "overflow": "21"}
    code, obj = run_json(capsys, ["bound", "--name", "d-even-overflow",
                                  "--n", "8", "--d", "3"])
    assert code == 0 and obj["value"] == "21"


def test_walks_subcommands(tmp_path, capsys):
    code, obj = run_json(capsys, ["walks", "--mode", "count", "--n", "4",
                                  "--k", "2", "--t", "1"])
    assert code == 0 and obj["count"] == "4"
    code, obj = run_json(capsys, ["walks", "--mode", "count", "--n", "4",
                                  "--k", "2", "--t", "1", "--brute"])
    assert code == 0 and obj["count"] == "4"
    code, obj = run_json(capsys, ["walks", "--mode", "trace", "--n", "4",
                                  "--set", "1,2"])
    assert code == 0
    assert obj["points"] == [[0, 0], [0, 1], [0, 2], [1, 2], [2, 2]]
    fam = tmp_path / "s.json"
    run(["construct", "--family", "full-star", "--n", "6", "--k", "3",
         "--t", "2", "-o", str(fam)])
    capsys.readouterr()
    assert run(["walks", "--mode", "verify-hits", "--t", "2",
                "--input", str(fam), "-o", str(tmp_path / "h.json")]) == 0


def test_bound_subcommand(capsys):
    code, obj = run_json(capsys, ["bound", "--name", "katona",
                                  "--n", "5", "--u", "2"])
    assert code == 0 and obj["value"] == "6"
    code, obj = run_json(capsys, ["bound", "--name", "overflow",
                                  "--n", "12", "--u", "4"])
    assert code == 0 and obj["value"] == "10" and obj["in_proved_regime"]
    code, obj = run_json(capsys, ["bound", "--name", "quintic", "--c", "11/10"])
    assert code == 0 and obj["sign"] == 1
    code, obj = run_json(capsys, ["bound", "--name", "key-ratio", "--n", "10",
                                  "--r", "3", "--a", "1", "--b", "1"])
    assert code == 0 and obj["holds"]


def test_search_and_recheck_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["search", "--objective", "overflow-even", "--n", "6",
                "--d", "1", "-o", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    assert obj["optimum"] == "1" and obj["proven_optimal"]
    assert run(["recheck", "--input", str(cert),
                "-o", str(tmp_path / "r.json")]) == 0
    # tamper and recheck again
    obj["optimum"] = "7"
    cert.write_text(json.dumps(obj))
    assert run(["recheck", "--input", str(cert),
                "-o", str(tmp_path / "r2.json")]) == 1
    capsys.readouterr()


def test_recheck_above_the_search_cap(tmp_path, capsys):
    # a certificate for n = 30 > SEARCH_CAP is rechecked, not refused
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "objective": "max_union_size", "params": {"n": 30, "u": 4},
        "optimum": "466", "witness": {"n": 30, "hex": [
            format(m, "x") for m in katona(30, 4).members]},
        "proven_optimal": False, "reduction": "none", "nodes": 0, "elapsed_ms": 0}))
    code, obj = run_json(capsys, ["recheck", "--input", str(cert)])
    assert code == 0 and obj == {"recheck": True}


def test_flags_come_from_the_tables(monkeypatch, capsys):
    # an objective, a bound and a construction that read flags no other
    # entry reads get those flags from their tables
    monkeypatch.setitem(OBJECTIVES, "probe_union", dataclasses.replace(
        OBJECTIVES["max_union_size"], params=("n", "r")))
    monkeypatch.setitem(_BOUNDS, "probe-binom", (binom, ("n", "s")))
    monkeypatch.setitem(CONSTRUCTIONS, "probe_katona", (katona, ("n", "w")))
    code, obj = run_json(capsys, ["search", "--objective", "probe-union",
                                  "--n", "5", "--r", "2"])
    assert code == 0 and obj["params"] == {"n": 5, "r": 2}
    assert obj["optimum"] == "6" and obj["proven_optimal"]
    code, obj = run_json(capsys, ["bound", "--name", "probe-binom",
                                  "--n", "5", "--s", "2"])
    assert code == 0 and obj == {"name": "probe-binom", "value": "10"}
    code, obj = run_json(capsys, ["construct", "--family", "probe-katona",
                                  "--n", "5", "--w", "2"])
    assert code == 0 and family_from_json(json.dumps(obj)) == katona(5, 2)


@pytest.mark.parametrize("objective,flags", [
    ("max-union-size", ["--n", "5", "--u", "3"]),
    ("max-diameter-size", ["--n", "5", "--u", "2"]),
    ("overflow-even", ["--n", "6", "--d", "1"]),
    ("overflow-odd", ["--n", "5", "--d", "1"]),
    ("upper-layers", ["--n", "6", "--u", "4"]),
    ("diversity", ["--n", "7", "--k", "2"]),
    ("diametral-overflow", ["--n", "4", "--u", "2"]),
])
def test_search_recheck_every_objective(tmp_path, capsys, objective, flags):
    cert = tmp_path / "cert.json"
    assert run(["search", "--objective", objective, *flags, "-o", str(cert)]) == 0
    obj = json.loads(cert.read_text())
    assert obj["objective"] == objective.replace("-", "_") and obj["proven_optimal"]
    assert run(["recheck", "--input", str(cert), "-o", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text()) == {"recheck": True}
    obj["optimum"] = str(int(obj["optimum"]) + 1)
    cert.write_text(json.dumps(obj))
    assert run(["recheck", "--input", str(cert), "-o", str(tmp_path / "r.json")]) == 1
    capsys.readouterr()


def test_search_modes(capsys):
    code, obj = run_json(capsys, [
        "search", "--objective", "overflow-even", "--n", "6", "--d", "1",
        "--initial-complexes", "no"])
    assert code == 0 and obj["optimum"] == "1" and obj["reduction"] == "none"
    code, obj = run_json(capsys, [
        "search", "--objective", "diversity", "--n", "5", "--k", "2"])
    assert code == 0 and obj["optimum"] == "1"
    assert obj["witness"]["sets"] == [[1, 2], [1, 3], [2, 3]]


@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_verify_suite(capsys, suite):
    code, obj = run_json(capsys, ["verify", "--suite", suite])
    assert code == 0 and obj["holds"] is True and obj["violations"] == []


# for each suite, one fact it checks and how to make that fact false
_BROKEN_FACTS = {
    "hilton": (bounds, "verify_hilton",
               lambda f: lambda *a: dataclasses.replace(f(*a), holds=False)),
    "facts": (cli, "is_t_intersecting", lambda f: lambda *a: False),
    "sperner": (bounds, "shadow_bound_check",
                lambda f: lambda *a: dataclasses.replace(f(*a), holds=False)),
    "reflection": (cli, "reflection_count", lambda f: lambda *a: f(*a) + 1),
    "katona-small": (bounds, "katona_bound", lambda f: lambda *a: f(*a) + 1),
}


@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_verify_suite_reports_violations(capsys, monkeypatch, suite):
    # a suite whose fact fails exits 1 with at most 20 of its violations
    module, name, breaking = _BROKEN_FACTS[suite]
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    code, obj = run_json(capsys, ["verify", "--suite", suite])
    assert code == 1 and obj["holds"] is False, obj
    assert 1 <= len(obj["violations"]) <= 20, obj


def test_usage_and_cap_exit_codes(capsys, tmp_path):
    assert run(["construct", "--family", "katona", "--n", "5"]) == 2  # missing --u
    assert run(["bogus"]) == 2
    assert run(["search", "--objective", "max-union-size", "--n", "30",
                "--u", "4"]) == 3
    assert run(["construct", "--family", "katona", "--n", "5", "--u", "9"]) == 2
    # families and searches too large to build are refused at once
    for argv in (["construct", "--family", "katona", "--n", "40", "--u", "38"],
                 ["construct", "--family", "triangle", "--n", "63", "--k", "30"],
                 ["search", "--objective", "max-union-size", "--n", "22", "--u", "21"]):
        assert run(argv) == 3, argv
    capsys.readouterr()
    # a missing flag is a usage error naming the flag, never a traceback
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({"n": 4, "sets": [[1, 2], [1, 3]]}))
    # a certificate whose params miss one of its objective's
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "objective": "overflow_even", "params": {"n": 8}, "optimum": "0",
        "witness": {"n": 8, "sets": []}, "proven_optimal": False,
        "reduction": "initial_complex", "nodes": 0, "elapsed_ms": 0}))
    for argv, message in (
            (["recheck", "--input", str(cert)], "need the parameters n, d, got n"),
            (["bound", "--name", "katona", "--n", "5"], "bound katona needs --u"),
            (["bound", "--name", "quintic"], "bound quintic needs --c"),
            (["bound", "--name", "quintic", "--c", "1/0"], "zero denominator"),
            # a bound checks its own range, not that of an inner binomial
            (["bound", "--name", "overflow", "--n", "1", "--u", "2"],
             "need 2 <= u < n, got u=2, n=1"),
            (["check", "--pred", "t-intersecting", "--input", str(fam)],
             "check t-intersecting needs --t"),
            (["check", "--pred", "u-union", "--input", str(fam)],
             "check u-union needs --u"),
            (["search", "--objective", "overflow-odd", "--n", "6"],
             "objective overflow-odd needs --d"),
            (["walks", "--mode", "count", "--n", "5", "--k", "2"],
             "walks count needs --t"),
            (["walks", "--mode", "count", "--n", "5", "--k", "2", "--brute"],
             "walks count needs --t"),
            (["walks", "--mode", "trace", "--k", "2", "--set", "1,2"],
             "walks trace needs --n"),
            (["walks", "--mode", "verify-hits", "--input", str(fam)],
             "walks verify-hits needs --t"),
            # huge or nonpositive integers are bad input, not an OverflowError
            (["transform", "--op", "translate", "--p", str(10 ** 20),
              "--input", str(fam)], "translate amount must be in [0, 4]"),
            (["walks", "--mode", "trace", "--n", "5", "--set", str(10 ** 20)],
             f"element {10 ** 20} outside [1, 63]"),
            (["walks", "--mode", "trace", "--n", "5", "--set", "0"],
             "element 0 outside [1, 63]"),
            (["construct", "--family", "ball", "--n", "5", "--u", "2",
              "--center", str(10 ** 20)], f"element {10 ** 20} outside [1, 63]"),
            # a huge --n is refused before a walk is traced over it
            (["walks", "--mode", "trace", "--n", str(10 ** 20), "--set", "1"],
             f"--n {10 ** 20} outside [0, 63]"),
            # an argument too large for the arithmetic is bad input too
            (["bound", "--name", "binom", "--n", str(10 ** 20),
              "--k", str(5 * 10 ** 19)], "must not exceed")):
        assert run(argv) == 2, argv
        assert message in capsys.readouterr().err


def test_huge_integer_flags_exit_2_at_once(capsys):
    # every bound computes through `bounds.binom`, and `walks count` through
    # `reflection_count`: both cap n, so a huge flag is refused, not computed
    big, half = str(10 ** 20), str(5 * 10 ** 16)
    argvs = [["bound", "--name", "hm", "--n", big, "--k", half],
             ["bound", "--name", "binom", "--n", str(10 ** 7), "--k", str(5 * 10 ** 6)],
             ["bound", "--name", "binom", "--n", str(10 ** 6), "--k", str(5 * 10 ** 5)],
             ["bound", "--name", "katona", "--n", str(10 ** 11), "--u", str(5 * 10 ** 10)],
             ["bound", "--name", "layer-refined", "--n", big, "--t", half, "--ell", half],
             ["bound", "--name", "walk-skip", "--n", big, "--k", half, "--p", "2"],
             ["bound", "--name", "d-even-overflow", "--n", big, "--d", half],
             ["bound", "--name", "diversity", "--n", big, "--k", half],
             ["walks", "--mode", "count", "--n", big, "--k", half, "--t", "1"]]
    for argv in argvs:
        t0 = time.monotonic()
        assert run(argv) == 2, argv
        assert time.monotonic() - t0 < 2, argv
        assert "must not exceed 4096" in capsys.readouterr().err, argv
    # the cap leaves every bound under a second
    assert run(["bound", "--name", "katona", "--n", "4096", "--u", "4095"]) == 0
    capsys.readouterr()


def test_huge_decimal_exponent_exits_2_at_once(capsys):
    # Fraction would build 10 to the exponent's power, however large
    for c in ("1e99999999", "1e-99999999"):
        t0 = time.monotonic()
        assert run(["bound", "--name", "quintic", "--c", c]) == 2, c
        assert time.monotonic() - t0 < 2, c
        assert repr(c) in capsys.readouterr().err, c
    for c in ("11/10", "1.1"):
        code, obj = run_json(capsys, ["bound", "--name", "quintic", "--c", c])
        assert code == 0 and obj["sign"] == 1, c


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level; a file nested past
    # the recursion limit is bad input, named by its path
    deep = "[" * 100000 + "]" * 100000
    for name, text in (("deep.json", deep), ("sets.json", '{"n": 3, "sets": %s}' % deep)):
        path = tmp_path / name
        path.write_text(text)
        for argv in (["check", "--pred", "complex", "--input", str(path)],
                     ["recheck", "--input", str(path)]):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err, (argv, err)


def test_binomial_cap_names_the_flag_n(capsys):
    # no inner binomial has a larger n than the flag, so the cap names it
    for argv in (["bound", "--name", "hm", "--n", str(10 ** 20), "--k", str(5 * 10 ** 16)],
                 ["bound", "--name", "d2r-gap", "--n", "5000", "--r", "10"],
                 ["walks", "--mode", "count", "--n", "5000", "--k", "3", "--t", "1"]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"--n {argv[argv.index('--n') + 1]} must not exceed 4096" in err, err
    # the enumeration keeps its own step cap
    assert run(["walks", "--mode", "count", "--brute", "--n", "5000", "--k", "3",
                "--t", "1"]) == 3
    capsys.readouterr()


def test_walk_gap_staircase_must_fit(capsys):
    # the staircase (1..p, p+2, ..., 2k-p) lies in [n], or the bound does
    # not apply; the message names the bound's own parameters
    for n in ("3", "-1"):
        assert run(["bound", "--name", "walk-gap", "--n", n, "--k", "3", "--p", "0"]) == 2
        assert f"2k - p <= n, got n={n}, k=3, p=0" in capsys.readouterr().err
    assert run(["bound", "--name", "walk-gap", "--n", "6", "--k", "3", "--p", "0"]) == 0
    capsys.readouterr()


def test_stdin_stdout_paths(capsys, monkeypatch, tmp_path):
    import io
    fam_json = json.dumps({"n": 4, "hex": ["3", "5"]})
    monkeypatch.setattr("sys.stdin", io.StringIO(fam_json))
    code, obj = run_json(capsys, ["check", "--pred", "t-intersecting",
                                  "--t", "1", "--input", "-"])
    assert code == 0 and obj["holds"]


def test_table_format(capsys):
    assert run(["bound", "--name", "binom", "--n", "8", "--k", "2",
                "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert 'value: "28"' in out


def test_search_option_and_certificate_input_errors(tmp_path, capsys):
    argv = ["search", "--objective", "max-union-size", "--n", "5", "--u", "2"]
    assert run(argv + ["--time-limit", "-1"]) == 2
    assert run(argv + ["--time-limit", "nan"]) == 2
    assert run(argv + ["--time-limit", "inf"]) == 0
    assert run(argv + ["--workers", "0"]) == 2
    assert run(argv + ["--workers", "2"]) == 2
    assert run(argv + ["--workers", "1"]) == 0
    cert = tmp_path / "cert.json"
    assert run(argv + ["-o", str(cert)]) == 0
    good = json.loads(cert.read_text())
    bad_fields = [("objective", "max_nonsense"), ("maximizers", "abc"),
                  ("maximizers", 1.5), ("params", []),
                  ("optimum", None), ("optimum", []), ("optimum", 1.5),
                  ("nodes", None), ("nodes", [1]), ("elapsed_ms", None),
                  ("elapsed_ms", {}), ("proven_optimal", "no"), ("timed_out", "yes"),
                  ("reduction", 1)]
    bad_fields += [("witness", bad) for bad in BAD_FAMILIES]
    for key, bad in bad_fields:
        cert.write_text(json.dumps({**good, key: bad}))
        assert run(["recheck", "--input", str(cert)]) == 2, (key, bad)
    capsys.readouterr()


@cache
def _valid_certificate() -> dict:
    return maximize("max_union_size", {"n": 5, "u": 2}).to_json_dict()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(_valid_certificate())), value=JSON_VALUES)
def test_recheck_input_contract_fuzz(tmp_path_factory, key, value):
    # one field of a valid certificate replaced by an arbitrary JSON value:
    # recheck answers 0, 1 or 2 and never raises
    path = tmp_path_factory.getbasetemp() / "fuzzed-cert.json"
    path.write_text(json.dumps({**_valid_certificate(), key: value}))
    assert run(["recheck", "--input", str(path)]) in (0, 1, 2)


def _dashed(names):
    return sorted(name.replace("_", "-") for name in names)


# subcommand -> (its choice flag and the choices, its integer flags, the
# family or certificate files it reads)
SUBCOMMANDS = {
    "construct": ("--family", _dashed(CONSTRUCTIONS),
                  ("n", "u", "k", "t", "d", "r", "x", "m"), ()),
    "check": ("--pred", sorted(_PREDICATES), ("t", "u"), ("--input", "--input2")),
    "transform": ("--op", sorted(_TRANSFORMS), ("p",), ("--input",)),
    "overflow": ("--parity", ["even", "odd"], ("d",), ("--input",)),
    "walks": ("--mode", sorted(_WALKS), ("n", "k", "t", "a", "b"), ("--input",)),
    "bound": ("--name", sorted(_BOUNDS),
              ("n", "u", "k", "t", "d", "r", "p", "a", "b", "ell"), ("--input", "--input2")),
    "search": ("--objective", _dashed(OBJECTIVES), ("n", "u", "k", "d"), ()),
    "verify": ("--suite", sorted(_SUITES), (), ()),
    "recheck": (None, [], (), ("--input",)),
}


# subcommand -> the flags its table reads
TABLE_FLAGS = {
    "construct": {name for _, names in CONSTRUCTIONS.values() for name in names},
    "check": {name for _, names in _PREDICATES.values() for name in names},
    "walks": {name for _, names in _WALKS.values() for name in names},
    "bound": {name for _, names in _BOUNDS.values() for name in names},
    "search": {name for obj in OBJECTIVES.values() for name in obj.params},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_help_names_every_flag(capsys, command):
    assert run([command, "--help"]) == 0
    text = capsys.readouterr().out
    choice_flag, _, int_flags, inputs = SUBCOMMANDS[command]
    flags = {f"--{name}" for name in TABLE_FLAGS.get(command, set()) | set(int_flags)}
    flags |= set(inputs) | ({choice_flag} if choice_flag else set())
    for flag in flags:
        assert re.search(rf"{flag}\b", text), (command, flag)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid and malformed family and certificate files, and a missing path."""
    base = tmp_path_factory.mktemp("fuzz")
    cert = _valid_certificate()
    texts = [json.dumps({"n": 5, "sets": [[1, 2], [1, 3], [2, 3]]}),
             json.dumps({"n": 6, "hex": [format(m, "x") for m in b_family(6, 2)]}),
             json.dumps({"n": 4, "sets": []}), json.dumps({"n": 3, "sets": [[]]}),
             json.dumps(cert), json.dumps({**cert, "optimum": "7"}), "{not json"]
    texts += [json.dumps(bad) for bad in BAD_FAMILIES]
    paths = []
    for i, text in enumerate(texts):
        path = base / f"{i}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(base / "missing.json")]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cli_fuzz_every_subcommand(fuzz_files, data):
    # a subcommand with a drawn choice, integer flags in [-2, 63] and input
    # files answers 0, 1, 2 or 3 without a traceback, 1 only as a verdict,
    # and 0 only without a false verdict or a timeout
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    choice_flag, choices, int_flags, inputs = SUBCOMMANDS[command]
    argv = [command]
    if choice_flag:
        argv += [choice_flag, data.draw(st.sampled_from(choices))]
    if int_flags:
        flags = data.draw(st.dictionaries(st.sampled_from(int_flags), st.integers(-2, 63)))
        for flag, value in flags.items():
            argv += [f"--{flag}", str(value)]
    for flag in inputs:
        argv += [flag, data.draw(st.sampled_from(fuzz_files))]
    if command == "search":
        argv += ["--time-limit", "1"]
    if command == "walks" and data.draw(st.booleans()):
        argv.append("--brute")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        verdict = json.loads(out.getvalue())
        assert False in (verdict.get("holds"), verdict.get("all_hit"),
                         verdict.get("recheck")), argv
    if code == 0:
        answer = json.loads(out.getvalue())
        assert False not in (answer.get("holds"), answer.get("all_hit"),
                             answer.get("recheck")), argv
        assert answer.get("timed_out") is not True, argv
