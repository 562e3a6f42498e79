"""Layer spans and per-layer counters for the traced benchmark run.

The spans wrap the public entry point of each layer of the verifier, as
``repro.pipeline.verify`` calls them, by rebinding those names inside the
child process; the program itself carries no tracing code. Spans stay in
memory and leave the child once, in its result.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Dict, List

#: The layer spans directly under ``verify``; their total over the
#: ``verdict_s`` of the same traced child is ``trace.coverage``.
VERIFY_LAYERS = ("analysis.static", "semantics.build", "mucalc.check",
                 "mucalc.witness.extract")


class Tracer:
    """Records (name, start, end, parent, run) spans when enabled."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Rebind ``owner.attribute`` to a spanned wrapper of itself."""
        inner = getattr(owner, attribute)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attribute, spanned)

    def instrument(self) -> None:
        """Span the layer entry points that ``verify`` calls."""
        if not self.enabled:
            return
        import repro.pipeline as pipeline
        from repro.analysis.dataflow_graph import DataflowGraph
        from repro.analysis.dependency_graph import DependencyGraph
        from repro.mucalc.checker import ModelChecker

        self.wrap(pipeline, "verify", "verify")
        for owner, attribute in (
                (pipeline, "dependency_graph"),
                (pipeline, "dataflow_graph"),
                (DependencyGraph, "is_weakly_acyclic"),
                (DataflowGraph, "is_gr_acyclic"),
                (DataflowGraph, "is_gr_plus_acyclic")):
            self.wrap(owner, attribute, "analysis.static")
        self.wrap(pipeline, "build_det_abstraction", "semantics.build")
        self.wrap(pipeline, "rcycl", "semantics.build")
        self.wrap(ModelChecker, "__init__", "mucalc.check")
        self.wrap(ModelChecker, "models", "mucalc.check")
        self.wrap(pipeline, "extract", "mucalc.witness.extract")


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name, minus the time of each span's children.

    Spans come from one thread, so children never overlap and their
    durations add up to the part of the parent they cover."""
    totals: Dict[str, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            totals[parent] = totals.get(parent, 0.0) - duration
    return totals


def covered_seconds(spans: List[Dict[str, Any]]) -> float:
    """Seconds of ``verify`` spent inside its direct layer spans."""
    roots = {span["id"] for span in spans if span["name"] == "verify"}
    return sum(span["end"] - span["start"] for span in spans
               if span["parent"] in roots and span["name"] in VERIFY_LAYERS)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_counters(report: Any) -> Dict[str, float]:
    """The per-layer counters ``verify`` already returns, flattened."""
    stats = report.abstraction_stats
    checking = report.checking_stats
    kernel = stats.get("kernel", {})
    vector = stats.get("vector", {})
    batch = stats.get("batch", {})
    store = stats.get("store", {})
    evictions = store.get("evictions", {})
    memo_hits = checking.get("memo_hits", 0)
    canonical_hits = kernel.get("canonical_memo_hits", 0)
    return {
        "engine.states_per_s": stats.get("states_per_sec", 0.0),
        "engine.frontier_peak": stats.get("frontier_peak", 0),
        "engine.states": stats.get("states", 0),
        "engine.edges": stats.get("edges", 0),
        "relational.kernel.evaluate_calls": kernel.get("evaluate_calls", 0),
        "relational.kernel.facts_interned": kernel.get("facts_interned", 0),
        "relational.kernel.instances_interned":
            kernel.get("instances_interned", 0),
        "relational.kernel.canonical_memo_hit_ratio": _ratio(
            canonical_hits,
            canonical_hits + kernel.get("canonical_evals", 0)),
        "relational.kernel.fallbacks": kernel.get("fallbacks", 0),
        "relational.vector.rows_peak": vector.get("rows_peak", 0),
        "relational.vector.fallbacks": vector.get("fallbacks", 0),
        "engine.batch.blocks": batch.get("blocks", 0),
        "engine.batch.dedup_ratio": _ratio(
            batch.get("dedup_hits", 0), batch.get("warmed_entries", 0)),
        "engine.batch.thin_blocks": batch.get("thin_blocks", 0),
        "engine.store.rehydrations": store.get("rehydrations", 0),
        "engine.store.page_reads": store.get("page_reads", 0),
        "engine.store.bytes_written": store.get("bytes_written", 0),
        "engine.store.evictions.hot": evictions.get("hot", 0),
        "engine.store.evictions.memos": evictions.get("memos", 0),
        "engine.store.budget_high_water": store.get("budget_high_water", 0),
        "mucalc.iterations": checking.get("iterations", 0),
        "mucalc.resets": checking.get("resets", 0),
        "mucalc.memo_hit_ratio": _ratio(
            memo_hits, memo_hits + checking.get("memo_misses", 0)),
        "mucalc.peak_extension": checking.get("peak_extension", 0),
    }
