"""Span recording around graphce's public functions, from outside the package.

graphce modules import each other's functions by name (``from .gf2 import
rank``), so a function is patched in every graphce module namespace that
holds it, not only where it is defined.  Spans nest on one stack, because the
program is single-threaded; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import resource
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _size(qubits) -> int:
    return qubits.bit_count() if isinstance(qubits, int) else len(qubits)


@dataclass(frozen=True)
class Layer:
    """One span name over one or more public functions, with the counts taken at its boundary."""

    name: str
    functions: tuple[tuple[str, str], ...]  # (graphce submodule, function name)
    moves: str  # the end-to-end metric and workload this layer should move
    counts: dict[str, Callable] = field(default_factory=dict)  # counter -> f(args, result)


# The layer -> end-to-end metric -> workload map.  A layer whose functions no
# longer exist in graphce records no spans and reports zero calls.
LAYERS = (
    Layer("cli.run", (("cli", "run"),), "item_ms_p50 on full-ce (small n)"),
    Layer("graphs.parse", (("graphs", "parse_graph6"), ("graphs", "parse_edge_list")),
          "item_ms_p50 on queries", {"vertices": lambda a, r: r.n}),
    Layer("graphs.cut_matrix", (("graphs", "biadjacency"),),
          "wall_s, item_ms_tail on full-ce; wall_s on queries and survey-n7",
          {"cells": lambda a, r: _size(a[1]) * _size(a[2])}),
    Layer("gf2.rank", (("gf2", "rank"),), "wall_s on full-ce",
          {"cells": lambda a, r: a[0].rows * a[0].cols}),
    Layer("graphs.connectivity", (("graphs", "is_connected"),), "item_ms_p50 on queries"),
    Layer("graphs.graph6_write", (("graphs", "write_graph6"),), "wall_s on survey-n7"),
    Layer("metrics.cut_sweep", (("metrics", "purity_spectrum"),), "wall_s on full-ce and survey-n7",
          {"cuts": lambda a, r: sum(c for level in r.levels[1:] for _, c in level)}),
    Layer("metrics.purity", (("metrics", "purity"),), "item_ms_p50 on queries"),
    Layer("metrics.subset_ce", (("metrics", "concentratable_entanglement"),), "item_ms_tail on queries",
          {"subsets": lambda a, r: 1 << _size(a[1])}),
    Layer("metrics.report", (("metrics", "ce_report"),), "wall_s on full-ce"),
    Layer("stabilizer.distinct_fast", (("stabilizer", "count_distinct_sets_fast"),), "wall_s on queries"),
    Layer("stabilizer.tableau",
          (("stabilizer", "graph_generators"), ("stabilizer", "measure_z"), ("stabilizer", "unitary_support")),
          "wall_s on verify"),
    Layer("dense.build_state", (("dense", "build_state"),), "wall_s on verify",
          {"amplitudes": lambda a, r: 1 << a[0].n}),
    Layer("dense.check_stabilizer", (("dense", "check_stabilizer"),), "wall_s on verify"),
    Layer("dense.check_measurement", (("dense", "check_measurement_rule"),), "wall_s on verify"),
    Layer("dense.check_lemma", (("dense", "check_lemma"),), "wall_s on verify"),
    Layer("dense.purity", (("dense", "dense_purity"),), "wall_s on verify"),
    Layer("survey.enumerate", (("survey", "enumerate_connected"),), "wall_s, peak_rss_mb on survey-n7",
          {"classes": lambda a, r: len(r)}),
    Layer("survey.records", (("survey", "ce_survey"),), "wall_s on survey-n7"),
    Layer("survey.csv", (("survey", "survey_csv"),), "wall_s on survey-n7", {"bytes": lambda a, r: len(r)}),
)
ENUMERATE = "survey.enumerate"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.calls", "count", "lower"), (f"{layer.name}.self_s", "s", "lower")]
        out += [(f"{layer.name}.{c}", "count", "lower") for c in layer.counts]
    out += [(f"{ENUMERATE}.orbits", "count", "lower"), (f"{ENUMERATE}.yield", "ratio", "higher"),
            (f"{ENUMERATE}.rss_growth_mb", "MB", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return out


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """In-memory spans: name, start, end, parent span and item id, in parallel arrays."""

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.rss_growth_kb = 0
        self.current_item = -1
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name_id: int, layer: Layer) -> Callable:
        track_rss = layer.name == ENUMERATE
        counters = tuple(layer.counts.items())
        prefix = layer.name + "."

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.current_item)
            self.end.append(0)
            self._stack.append(idx)
            rss_before = _maxrss_kb() if track_rss else 0
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()
            if track_rss:
                self.rss_growth_kb = max(self.rss_growth_kb, _maxrss_kb() - rss_before)
            for counter, count in counters:
                self.counts[prefix + counter] += count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Replace each layer's functions in every loaded graphce module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "graphce" or n.startswith("graphce.")]
        undo = []
        for name_id, layer in enumerate(LAYERS):
            for module, func in layer.functions:
                original = getattr(sys.modules.get(f"graphce.{module}"), func, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name_id, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters per layer; layers that never ran read zero."""
        total = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(total)]
        self_ns = list(dur)
        for i in range(total):
            if self.parent[i] >= 0:
                self_ns[self.parent[i]] -= dur[i]
        calls = [0] * len(LAYERS)
        self_sum = [0] * len(LAYERS)
        for i in range(total):
            calls[self.name[i]] += 1
            self_sum[self.name[i]] += self_ns[i]
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer.name}.calls"] = calls[k]
            out[f"{layer.name}.self_s"] = self_sum[k] / 1e9
            for counter in layer.counts:
                out[f"{layer.name}.{counter}"] = self.counts.get(f"{layer.name}.{counter}", 0)
        names = [layer.name for layer in LAYERS]
        enum_id, conn_id = names.index(ENUMERATE), names.index("graphs.connectivity")
        orbits = sum(1 for i in range(total)
                     if self.name[i] == conn_id and self.parent[i] >= 0 and self.name[self.parent[i]] == enum_id)
        out[f"{ENUMERATE}.orbits"] = orbits
        out[f"{ENUMERATE}.yield"] = out[f"{ENUMERATE}.classes"] / orbits if orbits else 0
        out[f"{ENUMERATE}.rss_growth_mb"] = self.rss_growth_kb / 1024
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip-compressed), times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("item\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.item[i]}\t{i}\t{self.parent[i]}\t{LAYERS[self.name[i]].name}\t"
                         f"{self.start[i] - t0}\t{self.end[i] - t0}\n")
