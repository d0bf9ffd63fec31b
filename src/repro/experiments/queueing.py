"""Queueing metrics and sweeps for multi-job streams.

Single-run experiments score a scheduler by makespan; a *stream* of jobs
contending for the star is scored by queueing behavior instead.  This
module reduces a :class:`~repro.sim.multijob.MultiJobResult` to a
:class:`QueueingMetrics` record (wait/response/slowdown statistics,
utilization, peak queue depth, work accounting), serializes it
byte-deterministically for golden regressions, runs `run_sweep`-style
(arrival-spec × policy) grids, and derives :class:`~repro.experiments.
figures.FigureResult` charts from them.

Metric definitions (per job ``j`` with arrival ``a_j``, first service
``s_j``, completion ``c_j``):

* **wait** ``s_j - a_j`` — head-of-line delay before first service.
* **response** ``c_j - a_j`` — sojourn time (what a user experiences).
* **service** — the sum of the job's slice makespans (pure processing).
* **slowdown** ``response / service`` — stretch; 1.0 means never queued.
* **utilization** — delivered compute time over ``N × horizon``: the
  fraction of the star's worker-seconds spent computing chunks that
  were not lost to faults.
* **max_queue_depth** — peak number of jobs in the system.

Per-job statistics (wait/response/slowdown/service, throughput) are
taken over the *completed* jobs — a failed job has no meaningful sojourn
time.  Fault-free streams complete every job, so their metrics (and
their golden bytes) are unchanged.

Streams run under an active fault plane additionally carry
a :class:`StreamHealthStats` block: failure/resubmission counts, the
exclusion count, **goodput** (completed jobs' requested work per second
— work delivered to failed jobs is wasted, not good), and the
**degraded-capacity utilization** ``live_utilization``, whose
denominator is the *live-worker capacity* (each worker contributes
worker-seconds only until its crash) rather than ``N × horizon``.  The
block is omitted from the JSON serialization when absent, so fault-free
metrics serialize to the exact pre-fault-plane bytes.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.experiments.figures import FigureResult
from repro.sim.multijob import MultiJobResult, simulate_stream
from repro.workloads.arrivals import PoissonArrivals, make_arrival_process

if typing.TYPE_CHECKING:
    from repro.platform.spec import PlatformSpec

__all__ = [
    "QueueingMetrics",
    "QueueingSweepResults",
    "StreamHealthStats",
    "metrics_from_json",
    "metrics_to_json",
    "queueing_figure",
    "queueing_metrics",
    "run_queueing_sweep",
]


@dataclasses.dataclass(frozen=True)
class StreamHealthStats:
    """Fault-plane summary of one stream (see module docstring).

    Present only for streams run with a fault model; fault-free metrics
    carry ``health=None`` and serialize without the block.
    """

    jobs_failed: int
    jobs_resubmitted: int
    workers_excluded: int
    goodput: float
    live_capacity: float
    live_utilization: float


@dataclasses.dataclass(frozen=True)
class QueueingMetrics:
    """Stream-level queueing summary of one multi-job run.

    Per-job statistics are over *completed* jobs; work accounting
    (``total_work``/``dispatched_work``/``delivered_work``/
    ``work_lost``) covers every job, failed ones included.
    """

    policy: str
    scheduler: str
    num_jobs: int
    horizon: float
    throughput: float
    mean_wait: float
    max_wait: float
    mean_response: float
    max_response: float
    mean_slowdown: float
    max_slowdown: float
    mean_service: float
    utilization: float
    max_queue_depth: int
    total_work: float
    dispatched_work: float
    delivered_work: float
    work_lost: float
    health: "StreamHealthStats | None" = None


def _mean(values: typing.Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _health_stats(
    stream: MultiJobResult, horizon: float, busy: float
) -> "StreamHealthStats | None":
    """The fault-plane block, or ``None`` without an active plane."""
    if stream.fault_spec == "none":
        return None
    n = stream.platform.N
    deaths = dict(stream.excluded)
    live_capacity = sum(
        min(deaths.get(w, horizon), horizon) for w in range(n)
    )
    goodwork = sum(rec.job.work for rec in stream.completed_jobs)
    return StreamHealthStats(
        jobs_failed=stream.jobs_failed,
        jobs_resubmitted=stream.jobs_resubmitted,
        workers_excluded=len(stream.excluded),
        goodput=goodwork / horizon if horizon > 0 else 0.0,
        live_capacity=live_capacity,
        live_utilization=busy / live_capacity if live_capacity > 0 else 0.0,
    )


def queueing_metrics(stream: MultiJobResult) -> QueueingMetrics:
    """Reduce a stream result to its queueing summary."""
    jobs = stream.jobs
    completed = stream.completed_jobs
    waits = [j.wait for j in completed]
    responses = [j.response for j in completed]
    slowdowns = [j.slowdown for j in completed]
    services = [j.service for j in completed]
    horizon = stream.horizon
    busy = sum(
        comp_time
        for rec in jobs
        for result in rec.results
        for comp_time in result.delivered_comp_times()
    )
    capacity = stream.platform.N * horizon
    return QueueingMetrics(
        policy=stream.policy,
        scheduler=stream.scheduler_name,
        num_jobs=len(jobs),
        horizon=horizon,
        throughput=len(completed) / horizon if horizon > 0 else 0.0,
        mean_wait=_mean(waits),
        max_wait=max(waits, default=0.0),
        mean_response=_mean(responses),
        max_response=max(responses, default=0.0),
        mean_slowdown=_mean(slowdowns),
        max_slowdown=max(slowdowns, default=0.0),
        mean_service=_mean(services),
        utilization=busy / capacity if capacity > 0 else 0.0,
        max_queue_depth=stream.max_queue_depth(),
        total_work=stream.total_work,
        dispatched_work=stream.dispatched_work,
        delivered_work=stream.delivered_work,
        work_lost=stream.work_lost,
        health=_health_stats(stream, horizon, busy),
    )


def metrics_to_json(metrics: QueueingMetrics) -> str:
    """Serialize metrics byte-deterministically (sorted keys, compact).

    Floats use Python's shortest-roundtrip repr, so identical metrics
    always serialize to identical bytes — the golden multijob regression
    pins exactly these strings.  A ``None`` health block is omitted
    entirely, keeping fault-free metrics byte-identical to their
    pre-fault-plane serialization.
    """
    data = dataclasses.asdict(metrics)
    if data.get("health") is None:
        data.pop("health", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def metrics_from_json(text: str) -> QueueingMetrics:
    """Exact inverse of :func:`metrics_to_json`."""
    data = json.loads(text)
    fields = {f.name for f in dataclasses.fields(QueueingMetrics)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"unknown metrics field(s): {sorted(unknown)}")
    missing = fields - set(data) - {"health"}
    if missing:
        raise ValueError(f"missing metrics field(s): {sorted(missing)}")
    health = data.pop("health", None)
    if health is not None:
        health_fields = {f.name for f in dataclasses.fields(StreamHealthStats)}
        if set(health) != health_fields:
            raise ValueError(
                f"malformed health block: got {sorted(health)}, "
                f"want {sorted(health_fields)}"
            )
        health = StreamHealthStats(**health)
    return QueueingMetrics(health=health, **data)


@dataclasses.dataclass(frozen=True)
class QueueingSweepResults:
    """A (arrival-spec × policy) grid of queueing metrics.

    ``metrics`` is keyed by ``(arrival_spec, policy_spec)`` — the spec
    strings as given, so grids are addressable the way they were asked
    for.  ``streams`` keeps the full per-cell results for drill-down.
    """

    platform: "PlatformSpec"
    scheduler: str
    error: float
    seed: int | None
    arrival_specs: tuple[str, ...]
    policies: tuple[str, ...]
    metrics: dict[tuple[str, str], QueueingMetrics]
    streams: dict[tuple[str, str], MultiJobResult]

    def cell(self, arrival_spec: str, policy: str) -> QueueingMetrics:
        return self.metrics[(arrival_spec, policy)]


def run_queueing_sweep(
    platform: "PlatformSpec",
    arrival_specs: typing.Sequence[str],
    policies: typing.Sequence[str] = ("fcfs", "partitioned:parts=2", "interleaved:slices=4"),
    scheduler: str = "RUMR",
    error: float = 0.0,
    seed: int | None = 0,
    engine: str = "fast",
    faults: "typing.Any | None" = None,
    failure_policy: "typing.Any" = "drop",
    stats: "typing.Any | None" = None,
) -> QueueingSweepResults:
    """Sweep the (arrival-spec × policy) grid on one platform.

    Every cell re-realizes its arrival process from the same ``seed``,
    so policies are compared on *identical* job streams — the queueing
    analogue of the sweep harness's common-random-numbers discipline.
    ``faults``/``failure_policy`` forward to every cell's
    :func:`~repro.sim.multijob.simulate_stream`; ``stats``, when given a
    :class:`~repro.obs.stats.SweepStats`, accumulates the cells' stream
    health counters for ``repro stats``.
    """
    metrics: dict[tuple[str, str], QueueingMetrics] = {}
    streams: dict[tuple[str, str], MultiJobResult] = {}
    for arrival_spec in arrival_specs:
        for policy in policies:
            stream = simulate_stream(
                platform,
                arrival_spec,
                scheduler=scheduler,
                error=error,
                seed=seed,
                policy=policy,
                engine=engine,
                faults=faults,
                failure_policy=failure_policy,
            )
            metrics[(arrival_spec, policy)] = queueing_metrics(stream)
            streams[(arrival_spec, policy)] = stream
            if stats is not None:
                stats.count_stream(stream)
    return QueueingSweepResults(
        platform=platform,
        scheduler=scheduler,
        error=error,
        seed=seed,
        arrival_specs=tuple(arrival_specs),
        policies=tuple(policies),
        metrics=metrics,
        streams=streams,
    )


def _arrival_axis(arrival_specs: typing.Sequence[str]) -> tuple[float, ...]:
    """X-axis values for a figure: Poisson rates when every spec has one,
    otherwise the spec indices."""
    rates = []
    for spec in arrival_specs:
        process = None
        if spec.partition(":")[0].strip() == "poisson":
            try:
                process = make_arrival_process(spec)
            except ValueError:
                pass
        if not isinstance(process, PoissonArrivals):
            return tuple(float(i) for i in range(len(arrival_specs)))
        rates.append(process.rate)
    return tuple(rates)


def queueing_figure(
    results: QueueingSweepResults, metric: str = "mean_response"
) -> FigureResult:
    """One series per policy over the arrival axis, plotting ``metric``.

    ``metric`` names any float field of :class:`QueueingMetrics`
    (``mean_response``, ``mean_slowdown``, ``utilization``, ...).  The
    x-axis is the Poisson arrival rate when every arrival spec is a
    ``poisson:`` spec, otherwise the spec index.
    """
    fields = {f.name for f in dataclasses.fields(QueueingMetrics)} - {"health"}
    if metric not in fields:
        raise ValueError(f"unknown metric {metric!r}; available: {sorted(fields)}")
    series = {
        policy: tuple(
            float(getattr(results.cell(spec, policy), metric))
            for spec in results.arrival_specs
        )
        for policy in results.policies
    }
    return FigureResult(
        title=f"Queueing: {metric} by inter-job policy ({results.scheduler})",
        xlabel="arrival rate" if any(
            s.startswith("poisson") for s in results.arrival_specs
        ) else "arrival spec index",
        ylabel=metric,
        errors=_arrival_axis(results.arrival_specs),
        series=series,
    )
