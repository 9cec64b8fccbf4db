"""Outside-in spans around the calls that ``pairsim.engine`` makes into each layer.

``Tracer.installed()`` replaces the layer functions that ``pairsim.engine``
imports (``sample_write``, ``thin``, ``histogram`` ...) with wrappers that
record a span per call, and restores them on exit.  The program itself is
not edited.  The benchmark opens further spans around its own calls into
the public API (``Tracer.span``).

A span is ``{id, op, name, start, end, parent, pid}``; spans of one
benchmark operation share ``op``.  Worker processes of a process pool are
forked with the wrappers in place: they append their spans, one JSON line
each, to ``worker-<pid>.jsonl`` in the trace directory, and the parent
collects them after each operation.  Their parent is the span that was
open when the pool forked, normally ``engine.simulate_run``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from pairsim import engine

# Name imported by pairsim.engine -> span name (layer.function).
ENGINE_NAMES = {
    "sample_write": "source.sample_write",
    "decohere_memory": "source.decohere_memory",
    "retrieve": "source.retrieve",
    "thin": "optics.thin",
    "add_background": "optics.add_background",
    "split": "optics.split",
    "detect_batch": "optics.detect_batch",
    "build_histogram": "tia.histogram",
    "extract_peak_areas": "tia.peak_areas",
    "export_histogram": "tia.export_histogram",
    "g_ratio": "analysis.g_ratio",
    "cauchy_schwarz": "analysis.cauchy_schwarz",
    "singles_rates": "analysis.singles_rates",
    "simulate_run": "engine.simulate_run",
}


class Tracer:
    """Spans and per-operation counters, kept in memory until ``write``."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[str] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        pid = os.getpid()
        span_id = f"{pid}.{self._next_id}"
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = {"id": span_id, "op": self.op, "name": name, "start": start,
                      "end": end, "parent": parent, "pid": pid}
            if pid == self.pid:
                self.spans.append(record)
            else:
                path = self.trace_dir / f"worker-{pid}.jsonl"
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")

    def count(self, name: str, amount: float) -> None:
        self.counters[self.op][name] += amount

    def _wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if os.getpid() == self.pid:
                self._count_result(span_name, result)
            return result
        return traced

    def _count_result(self, span_name: str, result) -> None:
        if span_name == "engine.simulate_run":
            self.count("optics.trials", result.trials)
            self.count("optics.nonquiet", result.trials - int(result.pattern_counts[0]))
            self.count("optics.clicks", sum(len(s) for s in result.streams.values()))
            # Computed from the block size, not observed in the engine.
            self.count("engine.blocks", -(-result.trials // engine.BLOCK_TRIALS))
        elif span_name == "tia.histogram":
            # Every enumerated start-stop pair with 0 <= delay < span lands in a bin.
            self.count("tia.pairs", int(result.bins.sum()))

    @contextmanager
    def installed(self):
        """Wrap the layer functions that pairsim.engine calls, then restore them."""
        saved = {attr: getattr(engine, attr) for attr in ENGINE_NAMES}
        for attr, span_name in ENGINE_NAMES.items():
            setattr(engine, attr, self._wrap(span_name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(engine, attr, fn)

    def collect_workers(self) -> None:
        """Move spans written by forked pool workers into this tracer."""
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counters": {str(op): dict(c) for op, c in self.counters.items()}},
                      fh)


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its child spans cover."""
    covered, reach = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span["end"] - span["start"]) - covered


def per_op_layer_times(spans: list[dict], op: int) -> dict[str, float]:
    """Busy seconds per span name in one operation, plus ``engine.self``.

    Spans from several worker processes add up, so a name's total can
    exceed the operation's wall time.
    """
    mine = [s for s in spans if s["op"] == op]
    children: dict[str, list[dict]] = defaultdict(list)
    for s in mine:
        children[s["parent"]].append(s)
    totals: dict[str, float] = defaultdict(float)
    for s in mine:
        totals[s["name"]] += s["end"] - s["start"]
        if s["name"].startswith("engine."):
            totals["engine.self"] += self_time(s, children[s["id"]])
    return totals
