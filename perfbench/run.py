"""Benchmark of the katona library: time to a proven, rechecked certificate.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 10     # every workload, both modes

One run sets the workload up several times (import, inputs, warm-up) and
reports the median set-up time, then runs passes over the workload's calls
in a closed loop, one caller, ``workers=1``, until the next pass would end
after ``--seconds``.  Every call's output is checked; a mismatch or an
exception counts as a failed call.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the calls run through span wrappers and the object holds the
per-layer metrics instead.  Without ``--workload`` every workload runs in
its own interpreter, untraced and then traced, and a table of all metrics
is printed.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("ladder", "frontier", "exhaustive", "algebra")
SETUP_REPS = 9
# Every time the benchmark reports is CPU time scaled to a reference host
# speed by a Speedometer (speed.py), except the time of a call that stopped
# at its wall-clock time_limit, which is its wall time.  On a shared virtual
# machine the wall clock also counts time the host gives this CPU to other
# tenants (up to a quarter of a run), and the CPU's own speed changes by up
# to 2x from one second to the next.  The plain wall time of a pass is
# still printed.
SPEED = speed.Speedometer()

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("call_ms_p50", "ms"),
              ("call_ms_p90", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    [(f"self_s.{m}", "s") for m in tracing.MODULES + ("bench",)]
    + [(g, "s") for g in tracing.GROUP_NAMES]
    + [("search.nodes_per_s", "1/s"), ("search.cliques_per_s", "1/s"),
       ("search.proven", "count"), ("transforms.shift_ops", "count"),
       ("transforms.passes", "count"), ("traced_pass_s", "s")]
    + [(f"search.maximize_s.{r}", "s") for r in wl.TIMED_RUNGS]
    + [(f"search.nodes.{r}", "count") for r in wl.SOLVED_RUNGS]
)


def load_katona() -> dict:
    """Import katona afresh from the checkout's sources; module name -> module."""
    src = ROOT / "src"
    if not (src / "katona" / "__init__.py").is_file():
        raise SystemExit(f"error: no katona package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "katona" or m.startswith("katona.")]:
        del sys.modules[name]
    importlib.import_module("katona")
    return {m: importlib.import_module(f"katona.{m}") for m in tracing.MODULES}


def set_up(name: str, seed: int):
    """Import, build inputs and warm up SETUP_REPS times; keep the last."""
    times = []
    for _ in range(SETUP_REPS):
        mark = SPEED.mark()
        mods = load_katona()
        workload = wl.FACTORIES[name](mods, seed, OUT_DIR)
        workload.warm_up()
        times.append(SPEED.since(mark)[1])
    return mods, workload, statistics.median(times)


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Run passes until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        workload.before_pass()
        pass_wall = time.perf_counter()
        calls = []
        raw_cpu = scaled_cpu = 0.0
        for name, fn in workload.calls:
            call_wall, mark = time.perf_counter(), SPEED.mark()
            try:
                record = tracer.call(name, fn) if tracer else fn()
                ok = True
            except Exception:
                traceback.print_exc(file=sys.stderr)
                record, ok = {}, False
            (cpu, scaled), wall = SPEED.since(mark), time.perf_counter() - call_wall
            timed_out = "cert" in record and record["cert"].timed_out
            calls.append((name, wall if timed_out else scaled, ok, record))
            raw_cpu += cpu
            scaled_cpu += scaled
        entry = {"time": sum(c[1] for c in calls),
                 "wall": time.perf_counter() - pass_wall, "calls": calls,
                 "speed": scaled_cpu / raw_cpu if raw_cpu else 1.0}
        if tracer:
            # raw spans are kept for the latest pass only; earlier passes
            # keep their summary, which bounds the memory a long run takes
            entry["spans"] = tracer.take()
            entry["summary"] = tracing.summarize(entry["spans"], tracer.call_names)
            if passes:
                del passes[-1]["spans"]
        passes.append(entry)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def _call_percentile(passes: list[dict], share: float) -> float:
    """Median over passes of the pass's nearest-rank percentile of call ms.

    Within a pass the percentile is the call at rank ceil(share * calls), so
    it is always one call's time; the workloads fix which rung or job that
    is.  Taking the median over passes keeps one slow or fast pass from
    moving it, which a percentile pooled over all calls of a few passes
    would not.
    """
    per_pass = []
    for p in passes:
        ordered = sorted(t * 1e3 for _, t, _, _ in p["calls"])
        per_pass.append(ordered[math.ceil(share * len(ordered)) - 1])
    return statistics.median(per_pass)


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["time"] for p in passes),
        "call_ms_p50": _call_percentile(passes, 0.5),
        "call_ms_p90": _call_percentile(passes, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _pass_layers(entry: dict) -> dict:
    summary = entry["summary"]
    scale = entry["speed"]
    out = {f"self_s.{m}": summary["self_s"].get(m, 0.0) * scale
           for m in tracing.MODULES + ("bench",)}
    out.update({g: t * scale for g, t in summary["groups"].items()})
    layered = [0, 0.0]
    cliques = [0, 0.0]
    proven = shift_ops = shift_passes = 0
    for name, _, _, record in entry["calls"]:
        shift_ops += record.get("shift_ops", 0)
        shift_passes += record.get("passes", 0)
        cert = record.get("cert")
        if cert is None:
            continue
        proven += cert.proven_optimal
        tally = cliques if cert.reduction_used == "none" else layered
        tally[0] += cert.nodes_explored
        tally[1] += summary["maximize_s"].get(name, 0.0) * scale
        if name in wl.SOLVED_RUNGS:
            out[f"search.nodes.{name}"] = cert.nodes_explored
    out["search.nodes_per_s"] = layered[0] / layered[1] if layered[1] else 0.0
    out["search.cliques_per_s"] = cliques[0] / cliques[1] if cliques[1] else 0.0
    out["search.proven"] = proven
    out["transforms.shift_ops"] = shift_ops
    out["transforms.passes"] = shift_passes
    out["traced_pass_s"] = entry["time"]
    for rung in wl.TIMED_RUNGS:
        out[f"search.maximize_s.{rung}"] = summary["maximize_s"].get(rung, 0.0) * scale
    return out


def per_layer(passes: list[dict]) -> dict:
    """Median over passes of each per-pass layer figure."""
    rows = [_pass_layers(p) for p in passes]
    return {name: statistics.median(r.get(name, 0) for r in rows) for name, _ in PER_LAYER}


def write_spans(name: str, spans: list[tuple], call_names: dict) -> Path:
    """One JSON array per span of the last pass: id, parent, label, start and
    end in microseconds of CPU time since the pass's first span, call id and
    call name."""
    path = OUT_DIR / f"spans-{name}.jsonl"
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w") as fh:
        for span_id, parent, label, start, end, call in spans:
            fh.write(json.dumps([
                span_id, parent, label, round((start - origin) * 1e6),
                round((end - origin) * 1e6), call, call_names[call]]) + "\n")
    return path


def host_facts() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"cpu={model!r} loadavg={load}")


def run_one(args) -> int:
    print(host_facts(), flush=True)
    SPEED.start()
    try:
        mods, workload, setup_s = set_up(args.workload, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        digest = hashlib.sha256(
            json.dumps(workload.inputs, sort_keys=True).encode()).hexdigest()
        print(f"inputs: workload={args.workload} seed={args.seed} sha256={digest}")
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(SPEED.clock)
            print(f"trace: {tracing.instrument(tracer, mods)} public functions wrapped")
        passes = measure(workload, args.seconds, tracer)
    finally:
        SPEED.stop()
    samples = SPEED.samples
    print(f"speed: {len(samples)} samples, median {statistics.median(samples) * 1e6:.1f} us "
          f"(reference {speed.REFERENCE_SAMPLE_S * 1e6:.0f} us)")
    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(not ok for p in passes for _, _, ok, _ in p["calls"])
    proven = sum(r["cert"].proven_optimal for _, _, _, r in passes[-1]["calls"]
                 if "cert" in r)
    wall = statistics.median(p["wall"] for p in passes)
    print(f"passes={len(passes)} wall_s={wall} calls={attempted} "
          f"fail_ratio={failed / attempted} proven_per_pass={proven}")
    if args.trace:
        metrics = per_layer(passes)
        units = dict(PER_LAYER)
        spans = passes[-1]["spans"]
        path = write_spans(args.workload, spans, tracer.call_names)
        print(f"spans: {len(spans)} of the last pass written to "
              f"{path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes, setup_s)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, untraced then traced; one table."""
    print(host_facts(), flush=True)
    results = {}
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines[1:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited {proc.returncode}")
                return proc.returncode or 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                correct = False
                print(f"error: {name} trace={trace}: {result['failed']} calls failed")
            results.setdefault(name, {}).update(result["metrics"])
    print()
    print(f"{'metric':40} {'unit':6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for metric, unit in END_TO_END + tuple(PER_LAYER):
        row = "".join(f"{results[w][metric]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{metric:40} {unit:6}{row}")
    overhead = "".join(
        f"{results[w]['traced_pass_s']['value'] / results[w]['pass_s']['value'] - 1:>14.1%}"
        for w in WORKLOADS)
    print(f"{'trace_overhead (traced/untraced pass)':40} {'%':6}{overhead}")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
