"""Layer tracing for the benchmark, from outside the program.

:class:`LayerTracer` installs timing wrappers around the program's public
callables -- at every module that imported them by name, and on the
class for methods -- so no file under ``src/`` changes.  Spans are kept
in memory with a link to the span that caused them.  Calls too fine to
record one by one (memo lookups, per-trace comparisons, simulator runs)
are aggregated: their time still counts as child time of the enclosing
span, so every layer's *self time* (its own time minus the time of the
traced layers it called) is exact.

Each traced pass runs under a root span (layer ``bench``); the root's
self time is the part of the pass no layer accounts for, which gives
``trace.coverage``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List

from repro.core.cache import ArtifactCache, pipeline_phase_keys
from repro.enumeration import enumerate_states, enumerate_states_parallel
from repro.harness.compare import run_vector_trace, run_vector_traces
from repro.hdl.elaborate import elaborate
from repro.hdl.parser import parse
from repro.incremental import splice
from repro.incremental.diff import diff_models
from repro.incremental.recent import RecentBuilds
from repro.incremental.replay import incremental_enumerate
from repro.pp.rtl.core import PPCore
from repro.pp.spec import SpecSimulator
from repro.smurphi.fingerprint import fingerprint_model
from repro.tour import IndexedTourGenerator
from repro.translate.translator import translate
from repro.vectors import (
    TransitionEventMemo,
    VectorGenerator,
    pack_trace_set,
    unpack_trace_set,
)

#: Root layer of every traced pass; its self time is unattributed time.
ROOT = "bench"

#: ``(callable, layer)`` for module-level functions: wrapped in every
#: loaded ``repro`` module (and the benchmark's) that bound it by name.
FUNCTIONS = [
    (parse, "translate.parse"),
    (elaborate, "translate.elaborate"),
    (translate, "translate.build"),
    (enumerate_states, "enumeration"),
    (enumerate_states_parallel, "enumeration"),
    (pipeline_phase_keys, "core.cache.keys"),
    (fingerprint_model, "smurphi.fingerprint"),
    (diff_models, "incremental.diff"),
    (incremental_enumerate, "incremental.replay"),
    (splice.splice_traces, "incremental.splice"),
    (splice.dirty_flags, "incremental.splice"),
    (splice.clean_flags_for, "incremental.splice"),
    (splice.export_memo, "incremental.splice"),
    (splice.import_memo, "incremental.splice"),
    (splice.edge_costs, "incremental.splice"),
    (splice.graphs_equal, "incremental.splice"),
    (splice.tour_clean_flags, "incremental.splice"),
    (pack_trace_set, "vectors.pack"),
    (unpack_trace_set, "vectors.pack"),
    (run_vector_traces, "harness.compare"),
]

#: ``(class, method, layer)`` wrapped on the class itself.
METHODS = [
    (ArtifactCache, "load", "core.cache.load"),
    (ArtifactCache, "store", "core.cache.store"),
    (ArtifactCache, "copy_entry", "core.cache.store"),
    (RecentBuilds, "record", "incremental.journal"),
    (RecentBuilds, "entries", "incremental.journal"),
    (IndexedTourGenerator, "__init__", "tour"),
    (IndexedTourGenerator, "generate", "tour"),
    (VectorGenerator, "generate", "vectors"),
]

#: Fine-grained calls: aggregated (count + time), never one span each.
AGGREGATED_FUNCTIONS = [
    (run_vector_trace, "harness.trace"),
]
AGGREGATED_METHODS = [
    (TransitionEventMemo, "lookup", "vectors.memo"),
    (TransitionEventMemo, "lookup_edge", "vectors.memo"),
    (PPCore, "run", "harness.rtl"),
    (SpecSimulator, "run", "harness.spec"),
    (SpecSimulator, "run_with_control_flow", "harness.spec"),
]


def _count_enumeration(counts, result, args) -> None:
    _, stats = result
    counts["enumeration.states"] += stats.num_states
    counts["enumeration.edges"] += stats.num_edges
    counts["enumeration.transitions"] += stats.transitions_explored


def _count_tours(counts, result, args) -> None:
    if result is None:  # the constructor
        return
    stats = result.stats
    counts["tour.traces"] += stats.num_traces
    counts["tour.arc_traversals"] += stats.total_edge_traversals
    counts["tour.graph_arcs"] += stats.graph_edges
    counts["tour.longest_trace_arcs"] = max(
        counts["tour.longest_trace_arcs"], stats.longest_trace_edges
    )


def _count_vectors(counts, result, args) -> None:
    counts["vectors.instructions"] += result.total_instructions


def _count_trace(counts, result, args) -> None:
    counts["harness.compare.traces"] += 1
    counts["harness.compare.cycles"] += result.cycles


class _MemoCounts:
    """Reads a memo's own hit/miss counters as deltas after each lookup.

    Memos die with the build that made them, so their counters are taken
    while they are alive; a weak map keeps this from extending that life.
    """

    def __init__(self) -> None:
        self.last = weakref.WeakKeyDictionary()

    def __call__(self, counts, result, args) -> None:
        memo = args[0]
        hits, computed = self.last.get(memo, (0, 0))
        counts["vectors.memo.hits"] += memo.hits - hits
        counts["vectors.memo.computed"] += memo.computed - computed
        self.last[memo] = (memo.hits, memo.computed)


class LayerTracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-call durations of aggregated layers (for percentiles).
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[List[Any]] = []  # [span id, layer, child seconds]
        self._next_id = 0
        #: Counters read off the outermost calls of a layer.
        self._counters = {
            "enumeration": _count_enumeration,
            "tour": _count_tours,
            "vectors": _count_vectors,
            "harness.trace": _count_trace,
            "vectors.memo": _MemoCounts(),
        }
        self._installed: List[tuple] = []
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _call(self, layer: str, name: str, record: bool, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)  # re-entry: the outer call owns it
        frame = [self._next_id, layer, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.calls[layer] += 1
            self.total_s[layer] += duration
            self.self_s[layer] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if record:
                self.spans.append({
                    "id": frame[0],
                    "parent": stack[-1][0] if stack else None,
                    "layer": layer,
                    "name": name,
                    "start": start - self._epoch,
                    "dur": duration,
                })
            else:
                self.durations[layer].append(duration)
        counter = self._counters.get(layer)
        if counter is not None:
            counter(self.counts, result, args)
        return result

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` under a root span of the benchmark's own."""
        return self._call(ROOT, name, True, fn, (), {})

    def _wrapper(self, fn, layer: str, record: bool):
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, record, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, fn, layer: str, record: bool) -> None:
        setattr(owner, attr, self._wrapper(fn, layer, record))
        self._installed.append((owner, attr, fn))

    def install(self) -> None:
        """Wrap every listed callable at each of its import sites."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name.split(".")[0] == "repro"
                                    or name in ("workloads", "__main__"))
        ]
        for table, record in ((FUNCTIONS, True), (AGGREGATED_FUNCTIONS, False)):
            for fn, layer in table:
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, fn, layer, record)
        for table, record in ((METHODS, True), (AGGREGATED_METHODS, False)):
            for cls, attr, layer in table:
                self._patch(cls, attr, cls.__dict__[attr], layer, record)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def coverage(self) -> float:
        """Share of the root spans' wall time spent inside named layers."""
        total = self.total_s.get(ROOT, 0.0)
        if not total:
            return 0.0
        return 1.0 - self.self_s.get(ROOT, 0.0) / total

    def layer_table(self, passes: int) -> Dict[str, Dict[str, float]]:
        """Per-layer calls and times, averaged over ``passes`` traced passes."""
        n = max(passes, 1)
        return {
            layer: {
                "calls": self.calls[layer] / n,
                "total_s": self.total_s[layer] / n,
                "self_s": self.self_s[layer] / n,
            }
            for layer in sorted(self.calls)
        }

    def percentile_ms(self, layer: str, q: int) -> float:
        """The ``q``-th percentile of an aggregated layer's call time, in ms."""
        values = self.durations.get(layer, [])
        if len(values) < 2:
            return values[0] * 1e3 if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3

    def write_chrome(self, path: str) -> None:
        """Chrome ``trace_event`` JSON: one complete (``X``) event per span."""
        events = [
            {
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": round(span["start"] * 1e6, 3),
                "dur": round(span["dur"] * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span["id"], "parent": span["parent"]},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def layer_metrics(
    tracer: LayerTracer, passes: int, program: Dict[str, float]
) -> Dict[str, float]:
    """The benchmark's per-layer metrics, per traced pass.

    ``program`` holds counters the program keeps itself, summed over the
    traced passes (observer counters and incremental reports).
    """
    n = max(passes, 1)
    s = {layer: tracer.self_s.get(layer, 0.0) / n for layer in tracer.calls}
    c = {name: value / n for name, value in tracer.counts.items()}
    p = {name: value / n for name, value in program.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    enum_s = s.get("enumeration", 0.0)
    memo_hits = c.get("vectors.memo.hits", 0.0)
    memo_computed = c.get("vectors.memo.computed", 0.0)
    vectors_s = s.get("vectors", 0.0)
    rtl_s = s.get("harness.rtl", 0.0)
    phase_hits = p.get("cache.phase_hits", 0.0)
    phase_total = phase_hits + p.get("cache.phase_misses", 0.0)
    return {
        "translate.parse_s": s.get("translate.parse", 0.0),
        "translate.elaborate_s": s.get("translate.elaborate", 0.0),
        "translate.build_s": s.get("translate.build", 0.0),
        "enumeration.s": enum_s,
        "enumeration.states": c.get("enumeration.states", 0.0),
        "enumeration.edges": c.get("enumeration.edges", 0.0),
        "enumeration.transitions": c.get("enumeration.transitions", 0.0),
        "enumeration.states_per_s": ratio(c.get("enumeration.states", 0.0), enum_s),
        "enumeration.kernel_expansions": p.get("enum.kernel.expansions", 0.0),
        "enumeration.kernel_memo_hits": p.get("enum.kernel.memo_hits", 0.0),
        "vectors.memo.s": s.get("vectors.memo", 0.0),
        "vectors.memo.computed": memo_computed,
        "vectors.memo.hit_ratio": ratio(memo_hits, memo_hits + memo_computed),
        "tour.self_s": s.get("tour", 0.0),
        "tour.traces": c.get("tour.traces", 0.0),
        "tour.arc_traversals": c.get("tour.arc_traversals", 0.0),
        "tour.redundancy": ratio(
            c.get("tour.arc_traversals", 0.0), c.get("tour.graph_arcs", 0.0)
        ),
        "tour.longest_trace_arcs": tracer.counts.get("tour.longest_trace_arcs", 0.0),
        "vectors.s": vectors_s,
        "vectors.pack_s": s.get("vectors.pack", 0.0),
        "vectors.instructions": c.get("vectors.instructions", 0.0),
        "vectors.instr_per_s": ratio(c.get("vectors.instructions", 0.0), vectors_s),
        "harness.compare.s": s.get("harness.compare", 0.0) + s.get("harness.trace", 0.0),
        "harness.compare.rtl_s": rtl_s,
        "harness.compare.spec_s": s.get("harness.spec", 0.0),
        "harness.compare.traces": c.get("harness.compare.traces", 0.0),
        "harness.compare.cycles": c.get("harness.compare.cycles", 0.0),
        "harness.compare.cycles_per_s": ratio(c.get("harness.compare.cycles", 0.0), rtl_s),
        "harness.compare.trace_p50_ms": tracer.percentile_ms("harness.trace", 50),
        "harness.compare.trace_p99_ms": tracer.percentile_ms("harness.trace", 99),
        "core.cache.load_s": s.get("core.cache.load", 0.0),
        "core.cache.loads": tracer.calls.get("core.cache.load", 0) / n,
        "core.cache.store_s": s.get("core.cache.store", 0.0),
        "core.cache.stores": tracer.calls.get("core.cache.store", 0) / n,
        "core.cache.keys_s": s.get("core.cache.keys", 0.0),
        "core.cache.phase_hit_ratio": ratio(phase_hits, phase_total),
        "smurphi.fingerprint_s": s.get("smurphi.fingerprint", 0.0),
        "incremental.diff_s": s.get("incremental.diff", 0.0),
        "incremental.replay_s": s.get("incremental.replay", 0.0),
        "incremental.splice_s": s.get("incremental.splice", 0.0),
        "incremental.journal_s": s.get("incremental.journal", 0.0),
        "incremental.region_states": p.get("incremental.region_states", 0.0),
        "incremental.spliced_tours": p.get("incremental.spliced_tours", 0.0),
        "incremental.regenerated_traces": p.get("incremental.regenerated_traces", 0.0),
        "incremental.fallbacks": p.get("incremental.fallbacks", 0.0),
        "trace.coverage": tracer.coverage(),
    }
