"""The traced run: wrappers around each module's public functions,
installed by the benchmark only while tracing, recording one span per call.

A span is (name, start, end, parent, op id). Spans are kept in memory in
flat arrays and written out when the run ends; self time is a span's
duration minus the part of it that its child spans cover. The package
source is not touched: wrappers replace module and class attributes, in
every rainbowsets module that binds the function by name, and are removed
afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from array import array
from time import perf_counter

LAYERS = ("cli", "core", "matching", "matroids", "_gf2", "transversals",
          "spancycles", "networks", "harness", "sweeps")

# Public methods of these classes are layer boundaries too.
CLASSES = {"matroids": ("IndependenceOracle",), "sweeps": ("SweepRun",)}

# Private kernels the roadmap names as layers of their own.
PRIVATE = {
    "core": ("_max_matching_general",),
    "matching": ("_bipartite_canonical", "_RainbowSearch._matching_bound"),
    "matroids": ("_intersection_augment",),
    "spancycles": ("_check_cooperative_hypothesis",),
}

HIT_RATIO_TARGET = "matroids.IndependenceOracle.is_independent"

# The per-layer metrics the traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    "matching.max_rainbow_matching.calls",
    "matching.max_rainbow_matching.self_s",
    "matching._RainbowSearch._matching_bound.calls",
    "matching._RainbowSearch._matching_bound.self_s",
    "core._max_matching_general.calls",
    "core._max_matching_general.self_s",
    "core.find_bipartition.calls",
    "core.matching_check.calls",
    "matching.counterexample_search.self_s",
    "matching.random_matching_family.self_s",
    "matching._bipartite_canonical.calls",
    "matching._bipartite_canonical.self_s",
    "sweeps.SweepRun.record.calls",
    "matroids.IndependenceOracle.is_independent.calls",
    "matroids.IndependenceOracle.is_independent.self_s",
    "matroids.IndependenceOracle.is_independent.hit_ratio",
    "matroids.IndependenceOracle.rank.calls",
    "matroids.IndependenceOracle.rank.self_s",
    "matroids.IndependenceOracle.in_span.calls",
    "matroids._intersection_augment.calls",
    "matroids._intersection_augment.self_s",
    "gf2.gf2_rank.calls",
    "gf2.gf2_rank.self_s",
    "gf2.gf2_in_span.calls",
    "gf2.gf2_solve_subset.self_s",
    "spancycles.rainbow_spanning_set.self_s",
    "spancycles.rainbow_odd_cycle.self_s",
    "spancycles.cooperative_odd_cycle_check.self_s",
    "spancycles._check_cooperative_hypothesis.self_s",
    "transversals.rado_rainbow.calls",
    "transversals.rado_rainbow.self_s",
    "transversals.hall_rainbow.self_s",
    "matroids.covering_number.calls",
    "matroids.covering_number.self_s",
    "harness.rota_scrambled_search.self_s",
    "harness.random_matroid.calls",
    "harness.run_sweep.self_s",
    "harness.latin_transversal.self_s",
    "harness.rainbow_short_cycle.self_s",
    "networks.nu_p.calls",
    "networks.nu_p.self_s",
    "networks.rainbow_disjoint_paths.self_s",
    "networks.rainbow_path_weighted.self_s",
    "networks.scrambled_rainbow_path.self_s",
    "cli.parse_instance.calls",
    "cli.parse_instance.self_s",
    "cli.main.self_s",
    "trace.overhead_frac",
)
UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "overhead_frac": "ratio"}


def span_name(layer: str, qualname: str) -> str:
    """Metric prefix of a function: layer names may not start with '_'."""
    return f"{layer.lstrip('_')}.{qualname}"


def trace_targets(package: str = "rainbowsets") -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, function) for every traced function.

    The owner is the defining module, or the class for methods. Generator
    functions are left out: their span would end before their work does.
    Names the package no longer has are skipped, so their metrics read 0.
    """
    out = []
    for layer in LAYERS:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                out.append((span_name(layer, attr), mod, attr, obj))
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            if cls is None:
                continue
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    out.append((span_name(layer, f"{cls_name}.{attr}"), cls, attr, obj))
        for qual in PRIVATE.get(layer, ()):
            owner = mod
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if inspect.isfunction(getattr(owner, attr, None)):
                out.append((span_name(layer, qual), owner, attr, getattr(owner, attr)))
    return out


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.hits: dict[int, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends, stack = self.starts, self.ends, self._stack
        tracer = self

        def span(args, kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            op_ids.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        if name == HIT_RATIO_TARGET:
            seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
            self.hits[nid] = 0

            @functools.wraps(fn)
            def wrapper(oracle, subset):
                s = frozenset(subset)
                known = seen.setdefault(oracle, set())
                if s in known:
                    tracer.hits[nid] += 1
                else:
                    known.add(s)
                return span((oracle, s), {})
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(args, kwargs)
        return wrapper

    def install(self, package: str = "rainbowsets"):
        """Wrap every target and rebind it wherever a module names it."""
        wrappers: dict[int, object] = {}
        for name, owner, attr, fn in trace_targets(package):
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = wrapper
            if inspect.isclass(owner):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path_prefix: str):
        """Spans as five flat binary arrays plus a JSON header naming them."""
        fields = ("name_ids", "parents", "op_ids", "starts", "ends")
        with open(path_prefix + ".spans.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {"names": self.names, "count": len(self.starts),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path_prefix + ".spans.json", "w") as fh:
            json.dump(header, fh)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time and (where tracked) hits."""
        self_s = self_times(self.starts, self.ends, self.parents)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, s in zip(self.name_ids, self_s):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += s
        for nid, hits in self.hits.items():
            out[self.names[nid]]["hits"] = hits
        return out


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span. Children are swept in start order, so a running
    frontier per parent measures the union without double counting."""
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    frontier = array("d", starts)
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], frontier[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    for i in range(n):
        covered[i] = ends[i] - starts[i] - covered[i]
    return covered


def per_layer_metrics(totals: dict, passes: int, overhead_frac: float) -> dict:
    """Every PER_LAYER metric, per traced pass; functions never reached read 0."""
    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric == "trace.overhead_frac":
            value = overhead_frac
        else:
            row = totals.get(base, {"calls": 0, "self_s": 0.0})
            if field == "hit_ratio":
                value = row.get("hits", 0) / row["calls"] if row["calls"] else 0.0
            else:
                value = row[field] / passes
        out[metric] = {"value": value, "unit": UNITS[field]}
    return out
