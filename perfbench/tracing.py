"""Span tracing of katona's module boundaries, installed from outside the package.

`instrument` replaces every public function of the seven modules, in every
module namespace that binds it, with a wrapper that records a span: its id,
its parent's id, a label ``<module>.<name>``, start, end and the id of the
benchmark call it belongs to.  Calls made inside one module through its own
globals are recorded too, so a module's self time is the time spent in its
code minus the time spent in spans it caused.  Times are read from the
clock the tracer is given: the benchmark passes its Speedometer's CPU
clock, and scales a pass's span times by the host speed measured in it.  The wrappers add two clock reads and a
list append per call; the benchmark reports the resulting overhead by
comparing traced and untraced pass times.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict

MODULES = ("core", "transforms", "constructions", "walks", "bounds", "search", "cli")

# mask/element conversions called once per member or per binomial: wrapping
# them would multiply the span count without marking a layer boundary, so
# their time stays in the caller's self time
UNWRAPPED = frozenset({"mask_of", "elements_of", "subsets_of", "binom"})

# public methods reached through a class rather than a module namespace
METHODS = (
    ("core", "SetFamily", "from_masks"),
    ("transforms", "ShiftLog", "to_json_dict"),
    ("transforms", "ShiftLog", "from_json_dict"),
    ("search", "SearchCertificate", "to_json_dict"),
    ("search", "SearchCertificate", "from_json_dict"),
)

# span label -> layer group whose time is reported per pass
GROUPS = {
    "search.recheck": "search.recheck_s",
    "core.is_t_intersecting": "core.predicate_s",
    "core.is_u_union": "core.predicate_s",
    "core.is_cross_t_intersecting": "core.predicate_s",
    "core.is_complex": "core.predicate_s",
    "core.SetFamily.from_masks": "core.from_masks_s",
    "core.family_to_json_dict": "core.json_s",
    "core.family_from_json_dict": "core.json_s",
    "core.family_to_json": "core.json_s",
    "core.family_from_json": "core.json_s",
    "transforms.make_initial": "transforms.make_initial_s",
    "walks.reflection_count": "walks.reflection_s",
    "walks.brute_hit_count": "walks.brute_s",
    "cli.run": "cli.search_recheck_s",
}
GROUP_NAMES = (
    "search.recheck_s", "core.predicate_s", "core.from_masks_s", "core.json_s",
    "transforms.make_initial_s", "walks.reflection_s", "walks.brute_s",
    "bounds.eval_s", "constructions.build_s", "constructions.seed_s",
    "cli.search_recheck_s", "cli.overhead_s",
)


class Tracer:
    """In-memory span recorder; `take` hands over and clears one pass's spans."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple] = []   # (id, parent, label, start, end, call)
        self.call_names: dict[int, str] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._call = 0

    def _record(self, label, fn, args, kwargs):
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((span_id, parent, label, start, end, self._call))

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(label, fn, args, kwargs)
        return traced

    def call(self, name: str, fn):
        """Run one benchmark call as a root span with a fresh call id."""
        self._call += 1
        self.call_names[self._call] = name
        return self._record("bench." + name, fn, (), {})

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def instrument(tracer: Tracer, mods: dict) -> int:
    """Wrap the public functions of every katona module; returns the count."""
    wrapped = 0
    for home in MODULES:
        namespace = vars(mods[home])
        for name, obj in list(namespace.items()):
            if (name.startswith("_") or name in UNWRAPPED
                    or not inspect.isfunction(obj)):
                continue
            owner = obj.__module__.rpartition(".")[2]
            if owner in MODULES:
                namespace[name] = tracer.wrap(f"{owner}.{name}", obj)
                wrapped += 1
    for home, cls_name, meth in METHODS:
        cls = getattr(mods[home], cls_name)
        attr = inspect.getattr_static(cls, meth)
        label = f"{home}.{cls_name}.{meth}"
        if isinstance(attr, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(label, attr.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(label, attr))
        wrapped += 1
    return wrapped


def _group(label: str, up: list[str]) -> str | None:
    """The layer group of a span, given its ancestors' labels (nearest first)."""
    if label.startswith("constructions."):
        return ("constructions.seed_s" if "search.maximize" in up
                else "constructions.build_s")
    if label.startswith("bounds."):
        return "bounds.eval_s"
    return GROUPS.get(label)


def summarize(spans: list[tuple], call_names: dict[int, str]) -> dict:
    """Self time per module, group times and mean maximize time per call name,
    for one pass.

    A group's time counts only spans with no ancestor in the same group, so
    nested calls (``construct`` calling ``katona``) are not counted twice.
    Constructions called under ``search.maximize`` are the search's seeds;
    the rest are direct builds.  The CLI overhead is the time under
    ``cli.run`` that is not spent in the library's maximize and recheck.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, label, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start

    def ancestors(parent: int) -> list[str]:
        labels = []
        while parent:
            span = by_id[parent]
            labels.append(span[2])
            parent = span[1]
        return labels

    self_s: dict[str, float] = defaultdict(float)
    groups: dict[str, float] = {g: 0.0 for g in GROUP_NAMES}
    maximize_s: dict[str, list[float]] = defaultdict(list)
    cli_library = 0.0
    for span_id, parent, label, start, end, call in spans:
        duration = end - start
        self_s[label.partition(".")[0]] += duration - child_time[span_id]
        up = ancestors(parent)
        if label == "search.maximize":
            maximize_s[call_names[call]].append(duration)
        if label in ("search.maximize", "search.recheck") and "cli.run" in up:
            cli_library += duration
        group = _group(label, up)
        if group is not None and not any(
                _group(a, up[i + 1:]) == group for i, a in enumerate(up)):
            groups[group] += duration
    groups["cli.overhead_s"] = groups["cli.search_recheck_s"] - cli_library
    return {"self_s": dict(self_s), "groups": groups,
            "maximize_s": {k: sum(v) / len(v) for k, v in maximize_s.items()}}
