"""Span tracing for the benchmark, installed from outside the package.

``install`` wraps every public module-level function of each kronmoments
layer, plus the ``SimpleGraph`` constructor and ``from_pairs``, in every
kronmoments module namespace that holds a reference to it, so a call made
through ``estimator.expected_features`` or ``cli.fit_direct`` is recorded
too.  A span is (name, start, end, parent); spans are kept in memory and
written once by ``Tracer.dump``.  ``analyse`` turns a dump into the
per-layer metrics.

The process is single-threaded, so spans nest strictly and a span's self
time is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("cli", "experiment", "graph_io", "features", "moments",
          "estimator", "generator")


def _edge_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith(b"#"))


def _file_lines(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


# Counters taken at the span boundary, after the span has ended; each maps
# the bound call arguments and the return value to {counter: value}.
_COUNTERS = {
    "generator.generate_edges": lambda a, out: {
        "cells": 4 ** a["params"].r, "edges": len(out)},
    "generator.generate_to_file": lambda a, out: {
        "cells": 4 ** a["params"].r, "edges": _edge_lines(out)},
    "features.count_triangles": lambda a, out: {"edges": a["g"].num_edges},
    "graph_io.load_edge_list": lambda a, out: {"lines": _file_lines(a["path"])},
    "estimator.fit_direct": lambda a, out: {"starts": a["starts"]},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: list[tuple[int, str, float]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, out).items():
                    self.counters.append((idx, key, value))
            return out

        return traced

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": spans,
                       "counters": self.counters}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in every kronmoments namespace."""
    package = importlib.import_module("kronmoments")
    modules = [importlib.import_module(f"kronmoments.{m}") for m in LAYERS]
    namespaces = [vars(package)] + [vars(m) for m in modules]
    for layer, module in zip(LAYERS, modules):
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", obj)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is obj:
                        ns[key] = traced
    graph_cls = modules[LAYERS.index("graph_io")].SimpleGraph
    graph_cls.__init__ = tracer.wrap("graph_io.SimpleGraph.__init__",
                                     graph_cls.__init__)
    graph_cls.from_pairs = classmethod(tracer.wrap(
        "graph_io.SimpleGraph.from_pairs",
        graph_cls.__dict__["from_pairs"].__func__))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# (metric, unit, better); values come from ``analyse``.
PER_LAYER = (
    ("generator.generate_edges.s", "s", "lower"),
    ("generator.ns_per_cell", "ns", "lower"),
    ("generator.edges_per_cell", "ratio", "higher"),
    ("generator.generate_to_file.s", "s", "lower"),
    ("generator.generate_to_file.edges_per_s", "1/s", "higher"),
    ("features.count_triangles.s", "s", "lower"),
    ("features.count_triangles.edges_per_s", "1/s", "higher"),
    ("features.count_degree_features.s", "s", "lower"),
    ("graph_io.load_edge_list.self_s", "s", "lower"),
    ("graph_io.lines_per_s", "1/s", "higher"),
    ("graph_io.SimpleGraph.s", "s", "lower"),
    ("moments.expected_features.calls", "count", "lower"),
    ("moments.expected_features.s", "s", "lower"),
    ("moments.expected_features.us_per_call", "us", "lower"),
    ("moments.expected_feature_arrays.s", "s", "lower"),
    ("estimator.fit_direct.self_s", "s", "lower"),
    ("estimator.fit_direct.evals_per_start", "count", "lower"),
    ("estimator.fit_grid.self_s", "s", "lower"),
    ("estimator.fit_leading.s", "s", "lower"),
    ("estimator.fit_best.self_s", "s", "lower"),
    ("experiment.run_experiment.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
) + tuple(
    (f"{layer}.self_share", "ratio", "lower") for layer in LAYERS
) + (
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanTable:
    """A loaded span dump with the queries the metrics need."""

    def __init__(self, dump: dict):
        table = dump["names"]
        spans = dump["spans"]
        self.name = [table[s[0]] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        self.self_time = list(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.self_time[p] -= self.dur[i]
        self.counters: dict[str, dict[str, float]] = {}
        for idx, key, value in dump["counters"]:
            per_name = self.counters.setdefault(self.name[idx], {})
            per_name[key] = per_name.get(key, 0) + value

    def __len__(self) -> int:
        return len(self.name)

    def calls(self, name: str) -> int:
        return sum(1 for n in self.name if n == name)

    def self_s(self, name: str) -> float:
        return sum(t for n, t in zip(self.name, self.self_time) if n == name)

    def inclusive_s(self, *names: str) -> float:
        """Wall time inside any of ``names``, counting nested spans once."""
        wanted = set(names)
        covered = [False] * len(self.name)
        total = 0.0
        for i, n in enumerate(self.name):
            p = self.parent[i]
            inside = p >= 0 and (covered[p] or self.name[p] in wanted)
            covered[i] = inside
            if n in wanted and not inside:
                total += self.dur[i]
        return total

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (transitively) inside ``ancestor``."""
        under = [False] * len(self.name)
        count = 0
        for i, n in enumerate(self.name):
            p = self.parent[i]
            under[i] = p >= 0 and (under[p] or self.name[p] == ancestor)
            if n == name and under[i]:
                count += 1
        return count

    def counter(self, name: str, key: str) -> float:
        return self.counters.get(name, {}).get(key, 0)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.name, self.self_time)
                   if n.startswith(prefix))


def analyse(dump: dict) -> dict:
    """Per-layer metric values (no overhead) from one traced job's spans."""
    t = SpanTable(dump)
    sweep_s = t.inclusive_s("generator.generate_edges",
                            "generator.generate_to_file")
    cells = (t.counter("generator.generate_edges", "cells")
             + t.counter("generator.generate_to_file", "cells"))
    edges = (t.counter("generator.generate_edges", "edges")
             + t.counter("generator.generate_to_file", "edges"))
    to_file_s = t.inclusive_s("generator.generate_to_file")
    tri_s = t.inclusive_s("features.count_triangles")
    load_s = t.inclusive_s("graph_io.load_edge_list")
    ef_calls = t.calls("moments.expected_features")
    ef_s = t.inclusive_s("moments.expected_features")
    total_self = sum(t.self_time)
    values = {
        "generator.generate_edges.s": t.inclusive_s("generator.generate_edges"),
        "generator.ns_per_cell": _ratio(sweep_s * 1e9, cells),
        "generator.edges_per_cell": _ratio(edges, cells),
        "generator.generate_to_file.s": to_file_s,
        "generator.generate_to_file.edges_per_s": _ratio(
            t.counter("generator.generate_to_file", "edges"), to_file_s),
        "features.count_triangles.s": tri_s,
        "features.count_triangles.edges_per_s": _ratio(
            t.counter("features.count_triangles", "edges"), tri_s),
        "features.count_degree_features.s":
            t.inclusive_s("features.count_degree_features"),
        "graph_io.load_edge_list.self_s": t.self_s("graph_io.load_edge_list"),
        "graph_io.lines_per_s": _ratio(
            t.counter("graph_io.load_edge_list", "lines"), load_s),
        "graph_io.SimpleGraph.s": t.inclusive_s(
            "graph_io.SimpleGraph.__init__", "graph_io.SimpleGraph.from_pairs"),
        "moments.expected_features.calls": ef_calls,
        "moments.expected_features.s": ef_s,
        "moments.expected_features.us_per_call": _ratio(ef_s * 1e6, ef_calls),
        "moments.expected_feature_arrays.s":
            t.inclusive_s("moments.expected_feature_arrays"),
        "estimator.fit_direct.self_s": t.self_s("estimator.fit_direct"),
        "estimator.fit_direct.evals_per_start": _ratio(
            t.calls_under("moments.expected_features", "estimator.fit_direct"),
            t.counter("estimator.fit_direct", "starts")),
        "estimator.fit_grid.self_s": t.self_s("estimator.fit_grid"),
        "estimator.fit_leading.s": t.inclusive_s("estimator.fit_leading"),
        "estimator.fit_best.self_s": t.self_s("estimator.fit_best"),
        "experiment.run_experiment.self_s":
            t.self_s("experiment.run_experiment"),
        "cli.main.self_s": t.self_s("cli.main"),
        "trace.spans": len(t),
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = _ratio(t.layer_self_s(layer),
                                               total_self)
    return values


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over several jobs' ``analyse`` results."""
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}

