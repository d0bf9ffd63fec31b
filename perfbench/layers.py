"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: for one traced round, every
layer's public entry point is replaced, *where its callers look it up*,
by a wrapper that records a span (layer, start, end, parent span, round
index as the request id); the originals are restored when the round
ends.  Spans stay in memory and are written as Chrome-trace JSON when
the run ends.  A layer's self time is its span time minus the time its
child spans cover.

The untraced rounds run the pristine functions: nothing is patched
outside a ``with tracer.round(...)`` block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import pathlib
import time
import tracemalloc

#: (module, attribute, layer) — each layer's entry point, named in the
#: module that *calls* it (``from x import f`` binds a second name).
FUNCTION_HOOKS = (
    ("repro.experiments.runner", "run_sweep", "runner"),
    ("repro.experiments.runner", "simulate_static_cells", "batch.static"),
    ("repro.experiments.runner", "compile_static_plan", "batch.compile"),
    ("repro.experiments.runner", "simulate_dynamic_cells", "dynbatch"),
    ("repro.experiments.runner", "simulate_fast", "fastsim"),
    ("repro.experiments.runner", "simulate_des", "des"),
    ("repro.sim.batch", "factor_stream", "errors.factor_draw"),
    ("repro.sim.dynbatch", "factor_stream", "errors.factor_draw"),
    ("repro.sim.dynbatch", "simulate_fast", "fastsim"),
    ("repro.sim.fastsim", "simulate_fast", "fastsim"),
    ("repro.sim.engine", "simulate_des", "des"),
    ("repro.sim.result", "simulate", "sim.simulate"),
    ("repro.sim.multijob", "simulate_stream", "multijob"),
    ("repro.experiments.queueing", "queueing_metrics", "queueing"),
    ("repro.experiments.queueing", "metrics_to_json", "queueing"),
    ("repro.core.umr", "solve_umr", "core.plan_solve"),
    ("repro.core.rumr", "solve_umr", "core.plan_solve"),
    ("repro.core.adaptive", "solve_umr", "core.plan_solve"),
    ("repro.core.multi_installment", "solve_multi_installment", "core.plan_solve"),
    ("repro.core.one_round", "solve_multi_installment", "core.plan_solve"),
)

#: The lru-cached plan solvers whose ``cache_info()`` deltas give the
#: plan-solve hit ratio.
SOLVER_CACHES = (
    ("repro.core.umr", "solve_umr"),
    ("repro.core.multi_installment", "solve_multi_installment"),
)

#: Layers whose allocation peak is measured, in a separate round, by
#: running tracemalloc for the duration of each call.
ALLOC_LAYERS = ("batch.static", "dynbatch")

#: Layers reported as a self-time share of the traced rounds' wall time.
#: ``harness`` is the benchmark's own code inside a round.
SHARE_LAYERS = (
    "harness", "runner", "batch.static", "batch.compile", "core.plan_solve",
    "errors.factor_draw", "errors.fault_sample", "dynbatch", "sim.simulate",
    "fastsim", "des", "multijob", "queueing",
)

#: Spans kept for the Chrome trace; later calls are still aggregated.
MAX_SPANS = 200_000


def _static_cells_shape(cells) -> dict:
    """Rows, padded slots and useful slots of a stacked static pass's input.

    Every repetition row is padded to the longest plan of the stack, so
    ``useful_slots / slots`` is the share of the (rows × k_max) tensor
    that holds real chunks — how skewed the stacked plan lengths are.
    """
    rows = sum(len(c.seeds) for c in cells)
    k_max = max((c.plan.num_chunks for c in cells), default=0)
    return {
        "rows": rows,
        "slots": rows * k_max,
        "useful_slots": sum(len(c.seeds) * c.plan.num_chunks for c in cells),
    }


def _dynamic_cells_shape(cells) -> dict:
    return {"cells": len(cells), "rows": sum(len(c.seeds) for c in cells)}


#: Input-shape counters read from the ``cells`` argument of a layer.
ARG_COUNTERS = {"batch.static": _static_cells_shape, "dynbatch": _dynamic_cells_shape}


def _fault_sample_hooks():
    """(owner, attribute) of every fault-schedule realization entry point."""
    from repro.errors import faults

    owners = [
        cls for cls in vars(faults).values()
        if isinstance(cls, type) and issubclass(cls, faults.FaultModel)
        and "sample_batch" in vars(cls)
    ]
    return [(cls, "sample_batch") for cls in owners] + [
        (faults.StreamFaultSchedule, "realize")
    ]


@dataclasses.dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclasses.dataclass
class _Span:
    layer: str
    start: float
    end: float
    parent: int
    request: int


class Tracer:
    """In-memory span recorder (see module docstring)."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.layers: dict[str, LayerTotals] = {}
        #: (parent layer, child layer) -> calls, e.g. grants per stream.
        self.edges: dict[tuple[str, str], int] = {}
        #: ``<layer>.<key>`` input-shape sums from :data:`ARG_COUNTERS`.
        self.counts: dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.round_s = 0.0
        self.rounds = 0
        #: Peak bytes allocated inside one call, per :data:`ALLOC_LAYERS`.
        self.alloc_peak: dict[str, int] = {layer: 0 for layer in ALLOC_LAYERS}
        self._stack: list[list] = []  # [span index, layer, start, child_s]
        self._origin = time.perf_counter()

    # -- recording ----------------------------------------------------------
    def _enter(self, layer: str, request: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(_Span(layer, 0.0, 0.0, parent, request))
        self._stack.append([index, layer, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        end = time.perf_counter()
        index, layer, start, child_s = self._stack.pop()
        dur = end - start
        totals = self.layers.setdefault(layer, LayerTotals())
        totals.calls += 1
        totals.total_s += dur
        totals.self_s += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
            edge = (self._stack[-1][1], layer)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if index >= 0:
            span = self.spans[index]
            span.start, span.end = start, end
        return dur

    def _span_wrapper(self, layer: str, fn, request: int):
        shape = ARG_COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if shape is not None:
                cells = args[0] if args else kwargs["cells"]
                for key, value in shape(cells).items():
                    name = f"{layer}.{key}"
                    self.counts[name] = self.counts.get(name, 0) + value
            self._enter(layer, request)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _alloc_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[layer] = max(self.alloc_peak[layer], peak)

        return measured

    # -- patching -----------------------------------------------------------
    @staticmethod
    @contextlib.contextmanager
    def _patched(make_wrapper, layers=None):
        """Replace every hooked entry point by ``make_wrapper(layer, fn)``."""
        saved = []
        try:
            for module_name, attr, layer in FUNCTION_HOOKS:
                if layers is not None and layer not in layers:
                    continue
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make_wrapper(layer, original))
            if layers is None or "errors.fault_sample" in layers:
                for owner, attr in _fault_sample_hooks():
                    raw = vars(owner)[attr]
                    saved.append((owner, attr, raw))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            make_wrapper("errors.fault_sample", raw.__func__)
                        )
                    else:
                        wrapped = make_wrapper("errors.fault_sample", raw)
                    setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def round(self, request: int):
        """Trace one round: hooks installed, a root span, solver cache deltas."""
        caches = [
            getattr(importlib.import_module(m), a) for m, a in SOLVER_CACHES
        ]
        before = [c.cache_info() for c in caches]
        wrap = lambda layer, fn: self._span_wrapper(layer, fn, request)  # noqa: E731
        with self._patched(wrap):
            self._enter("harness", request)
            try:
                yield
            finally:
                self.round_s += self._exit()
                self.rounds += 1
        for cache, old in zip(caches, before):
            new = cache.cache_info()
            self.cache_hits += new.hits - old.hits
            self.cache_misses += new.misses - old.misses

    @contextlib.contextmanager
    def alloc_round(self):
        """Measure :data:`ALLOC_LAYERS` allocation peaks for one round."""
        with self._patched(self._alloc_wrapper, layers=ALLOC_LAYERS):
            yield

    # -- reporting ----------------------------------------------------------
    def totals(self, layer: str) -> LayerTotals:
        return self.layers.get(layer, LayerTotals())

    def per_round(self, value: float) -> float:
        return value / self.rounds if self.rounds else 0.0

    def self_share_pct(self, layer: str) -> float:
        if not self.round_s:
            return 0.0
        return 100.0 * self.totals(layer).self_s / self.round_s

    def self_time_table(self) -> str:
        """Per-layer calls, total and self time, largest self time first."""
        lines = [
            f"{'layer':<22}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self %':>8}"
        ]
        for layer, t in sorted(self.layers.items(), key=lambda kv: -kv[1].self_s):
            lines.append(
                f"{layer:<22}{t.calls:>10}{t.total_s * 1e3:>12.1f}"
                f"{t.self_s * 1e3:>12.1f}{self.self_share_pct(layer):>8.1f}"
            )
        return "\n".join(lines)

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        """Write the kept spans as Chrome-trace (``chrome://tracing``) JSON."""
        events = []
        for span in self.spans:
            parent = self.spans[span.parent].layer if span.parent >= 0 else ""
            events.append({
                "name": span.layer,
                "cat": span.layer.split(".")[0],
                "ph": "X",
                "ts": (span.start - self._origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"request": span.request, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
