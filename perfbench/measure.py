"""Child-process side of the benchmark: timed rounds, checks, metrics.

Imported only inside the fresh single-threaded child that runs one
workload (see ``run.py``), after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback

import numpy as np

from repro.obs.stats import SweepStats

import hostspeed
import layers
from workloads import Check


def _run_for(seconds: float, step, min_steps: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed."""
    end = time.perf_counter() + seconds
    i = 0
    while i < min_steps or time.perf_counter() < end:
        step(i)
        i += 1


def _median_with_quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"value": float(med), "q1": float(q1), "q3": float(q3), "n": len(values)}


def _checks(workload, first) -> tuple[list[Check], dict]:
    if first.output is None:
        return [Check("first round produced outputs", False)], {}
    try:
        return workload.check(first)
    except Exception:  # noqa: BLE001 — a crashing check is a failed check
        traceback.print_exc(file=sys.stderr)
        return [Check("checks ran to completion", False)], {}


def _report(rounds, checks: list[Check], digest: str, metrics: dict) -> dict:
    failed_checks = [c for c in checks if not c.ok]
    for c in failed_checks:
        print(f"CHECK FAILED: {c.name} {c.detail}", file=sys.stderr)
    failed = sum(r.failed for r in rounds) + len(failed_checks)
    return {
        "correct": failed == 0,
        "attempted": sum(r.ops for r in rounds) + len(checks),
        "failed": failed,
        "digest": digest,
        "checks": len(checks),
        "metrics": metrics,
    }


def _digest(workload, first) -> str:
    return workload.digest(first.output) if first.output is not None else "none"


def measure(workload, seconds: float, array_share: float) -> dict:
    """Untraced run: the end-to-end metrics (all but ``setup_s``).

    Times are scaled to the quiet host's speed, round by round, by the
    probes taken during the round (see ``hostspeed``).
    """
    rounds, spans = [], []
    peak_rss_mib = 0.0

    def step(i):
        nonlocal peak_rss_mib
        t0 = time.perf_counter()
        r = workload.run_round(i)
        spans.append((t0, time.perf_counter()))
        if i:
            r.output = None  # only the first round's outputs are checked
        else:
            # Memory after a fixed amount of work (warm-up + one round), so
            # it does not grow with how many rounds fit in the run.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(r)

    with hostspeed.HostSpeed(array_share) as speed:
        _run_for(seconds, step)
    scales = [speed.scale(*span) for span in spans]
    calls_ms = [s * k * 1e3 for r, k in zip(rounds, scales) for s in r.call_s]
    p95, p99 = np.percentile(calls_ms, [95, 99])
    # Tails are informational: a sweep run has too few calls for them.
    print(f"call time tail over {len(calls_ms)} calls: p95 {p95:.6g} ms, "
          f"p99 {p99:.6g} ms, max {max(calls_ms):.6g} ms")
    print(f"host speed: {len(speed.ends)} probes, round scale factors median "
          f"{statistics.median(scales):.4g} (min {min(scales):.4g}, max "
          f"{max(scales):.4g}); unscaled: ops_per_s "
          f"{statistics.median(r.ops / sum(r.call_s) for r in rounds):.6g} 1/s, "
          f"call_ms_p50 {statistics.median(s for r in rounds for s in r.call_s) * 1e3:.6g} ms")
    metrics = {
        "ops_per_s": _median_with_quartiles(
            [r.ops / (sum(r.call_s) * k) for r, k in zip(rounds, scales)]
        ),
        "call_ms_p50": _median_with_quartiles(calls_ms),
        "peak_rss_mb": {"value": peak_rss_mib},
    }
    checks, _ = _checks(workload, rounds[0])
    return _report(rounds, checks, _digest(workload, rounds[0]), metrics)


def traced_measure(workload, seconds: float, trace_path) -> dict:
    """Traced run: traced and untraced rounds alternate; per-layer metrics."""
    tracer = layers.Tracer()
    stats = SweepStats()
    traced, untraced = [], []

    def step(i):
        if i % 2:
            untraced.append(workload.run_round(i))
            untraced[-1].output = None
            return
        with tracer.round(i):
            r = workload.run_round(i, stats=stats)
        if i:
            r.output = None
        traced.append(r)

    _run_for(seconds, step, min_steps=2)
    with tracer.alloc_round():
        workload.run_round(len(traced) + len(untraced))
    checks, extra = _checks(workload, traced[0])
    digest = _digest(workload, traced[0])
    replay = _digest(workload, workload.run_round(0))
    checks.append(Check("traced first round digest == untraced replay", digest == replay))

    tracer.write_chrome_trace(trace_path)
    print(f"self times over {tracer.rounds} traced round(s), "
          f"{tracer.round_s:.3f} s; spans in {trace_path}")
    print(tracer.self_time_table())
    metrics = {
        name: {"value": float(value)}
        for name, value in _per_layer(tracer, stats, traced, untraced, extra).items()
    }
    return _report(traced + untraced, checks, digest, metrics)


def _per_layer(tracer, stats, traced, untraced, extra) -> dict:
    per = tracer.per_round
    calls = lambda layer: per(tracer.totals(layer).calls)  # noqa: E731
    counters: dict = {}
    for r in traced:
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0) + value
    counts = tracer.counts
    slots = counts.get("batch.static.slots", 0)
    solves = tracer.cache_hits + tracer.cache_misses
    jobs = sum(r.ops for r in traced) if counters.get("streams") else 0
    share = lambda seconds: 100.0 * seconds / tracer.round_s  # noqa: E731
    wall = lambda rounds: statistics.median(sum(r.call_s) for r in rounds)  # noqa: E731

    metrics = {f"{layer}.self_pct": tracer.self_share_pct(layer)
               for layer in layers.SHARE_LAYERS}
    metrics.update({
        "batch.static.calls": calls("batch.static"),
        "batch.static.rows": per(counts.get("batch.static.rows", 0)),
        "batch.static.slot_fill_pct":
            100.0 * counts["batch.static.useful_slots"] / slots if slots else 0.0,
        "batch.static.alloc_peak_mib": tracer.alloc_peak["batch.static"] / 2**20,
        "batch.compile.calls": calls("batch.compile"),
        "core.plan_solve.calls": calls("core.plan_solve"),
        "core.plan_solve.cache_hit_pct":
            100.0 * tracer.cache_hits / solves if solves else 0.0,
        "errors.factor_draw.calls": calls("errors.factor_draw"),
        "errors.fault_sample.calls": calls("errors.fault_sample"),
        "errors.fault_crash_pct": share(stats.fault_wall_s["crash"]),
        "errors.fault_defer_pct": share(stats.fault_wall_s["defer"]),
        "dynbatch.calls": calls("dynbatch"),
        "dynbatch.cells": per(counts.get("dynbatch.cells", 0)),
        "dynbatch.rows": per(counts.get("dynbatch.rows", 0)),
        "dynbatch.rows_deferred_scalar": per(stats.rows_deferred_scalar),
        "dynbatch.alloc_peak_mib": tracer.alloc_peak["dynbatch"] / 2**20,
        "runner.cells_static_batch": per(stats.cells["static-batch"]),
        "runner.cells_dynbatch": per(stats.cells["dynbatch"]),
        "runner.cells_scalar": per(stats.cells["scalar"]),
        "runner.retries": per(stats.retries),
        "runner.engine_fallbacks": per(stats.engine_fallbacks),
        "runner.cells_quarantined": per(stats.cells_quarantined),
        "fastsim.calls": calls("fastsim"),
        "des.calls": calls("des"),
        "multijob.streams": per(counters.get("streams", 0)),
        "multijob.grants_per_job":
            tracer.edges.get(("multijob", "sim.simulate"), 0) / jobs if jobs else 0.0,
        "multijob.jobs_failed": per(counters.get("jobs_failed", 0)),
        "multijob.jobs_resubmitted": per(counters.get("jobs_resubmitted", 0)),
        "multijob.workers_excluded": per(counters.get("workers_excluded", 0)),
        "cache.kib": extra.get("cache.kib", 0.0),
        "cache.save_mib_per_s": extra.get("cache.save_mib_per_s", 0.0),
        "cache.load_mib_per_s": extra.get("cache.load_mib_per_s", 0.0),
        "trace.overhead_ratio": wall(traced) / wall(untraced),
    })
    return metrics
