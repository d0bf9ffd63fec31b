"""Multi-job stream simulation: divisible loads contending for one star.

The single-run engines (:mod:`repro.sim.fastsim`, :mod:`repro.sim.engine`)
schedule one divisible load on an otherwise idle platform.  This module
layers a *stream* on top: jobs arrive over time (see
:mod:`repro.workloads.arrivals`), contend for the same workers, and are
measured on queueing metrics — wait, response, slowdown, queue depth —
rather than makespan alone (:mod:`repro.experiments.queueing`).

Each job's own scheduling is untouched: a job runs through the existing
scheduler/engine stack via :func:`repro.sim.simulate`, prediction-error
models, fault injection and all.  The *inter-job* layer decides only when
a job gets the star and which workers it gets, through a pluggable
:class:`StreamPolicy`:

* **fcfs** — exclusive service in arrival order: a job takes the whole
  star and the next waits.  It *is* ``partitioned:parts=1`` under its
  own name, and the conformance anchor: a one-job stream is *bitwise
  identical* to calling :func:`~repro.sim.simulate` directly (same
  engine, same floats, same RNG streams), which makes the entire layer
  differentially testable.
* **partitioned:parts=k** — the star's workers are split into ``k``
  contiguous groups, each serving its own FCFS queue; a job goes to the
  partition that can start it earliest (ties to the lowest index).  Each
  partition is modelled with its own master link — the multi-NIC
  front-end assumption of the resource-sharing DLT literature.
* **interleaved:slices=s** — round-interleaved sharing: each job's load
  is cut into ``s`` equal slices and the master serves the *active* jobs'
  slices round-robin, so small jobs are not stuck behind a long one
  (head-of-line blocking is traded for per-job dilation).  ``slices=1``
  degenerates to FCFS, except in how a fault plane's failed grants are
  re-attempted (see below).

Every policy serves a job through one grant step (``_JobService.grant``):
run one slice on the admitted workers, fold the result into the health
tracker, and test what it delivered against the slice size.  The job's
record builder and its failure-reason rule sit beside that step.  The
policies differ only in which job is granted next, on which workers and
when: the exclusive loop (fcfs, partitioned) re-attempts after the
failure policy's backoff, the rotation (interleaved) at the job's next
turn.

Composition semantics: the star is handed over whole between consecutive
service grants — a grant's simulation starts from an idle platform, so
cross-grant communication/computation overlap is conservatively not
modelled.  This is exactly what makes every per-job
:class:`~repro.sim.result.SimResult` engine-native and bitwise
comparable: job timelines are kept in *job-relative* time, and the
stream-level absolute timeline lives in :class:`JobRecord`
(``start``/``finish``/``slice_starts``).

Seeding: a job runs under ``JobArrival.seed`` when set (the arrival
processes pre-assign seeds so traces are self-contained); otherwise the
engine derives one from its stream-level ``seed`` and the ``job_id`` via
the same :func:`~repro.errors.rng.stream_for` discipline the sweep
harness uses.  Multi-slice jobs derive one seed per slice from the job
seed; a single-slice job uses the job seed unchanged (preserving the
bitwise conformance of the degenerate cases).  Every seed a grant's
first attempt runs under is derived at stream start, in batch, and the
comm/comp stream states of those seeds are hashed into one scoped
:class:`~repro.errors.rng.StateTable` that each grant's ``simulate()``
reads back; re-attempt and backoff seeds derive when used.  The values
are the same either way.

Faults in streams
-----------------
The fault model is realized **once** on the absolute stream clock (a
:class:`~repro.errors.faults.StreamFaultSchedule`, sampled from the
stream seed's third spawned RNG child) and each service grant sees the
*projection* of that one timeline into its own frame:
crash/pause/slowdown state carries across jobs, and a worker that
crashed during job ``k`` dispatches zero chunks to any job ``j > k``.  A
:class:`PlatformHealth` tracker observes the per-grant loss ledgers (and
the master's crash watchers) and excludes dead workers at admission; a
job whose candidate set is wholly dead is *failed* — never deadlocked —
under a pluggable :class:`JobFailurePolicy` (``drop`` / ``retry`` with
deterministic backoff / ``resubmit`` the undelivered remainder to the
surviving workers).  Fault-free streams build no plane at all and run
the same grant step with ``plane=None``: the health tracker then admits
every worker and no grant falls short, so each job is served exactly as
its policy dictates.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.base import Scheduler
from repro.errors.faults import FrozenFaults, StreamFaultSchedule
from repro.errors.rng import StateTable, child_seeds, stream_for
from repro.kvspec import parse_kv, take
from repro.obs.events import SimEvent, canonical_order, events_from_result
from repro.platform.spec import PlatformSpec
from repro.sim.result import SimResult
from repro.workloads.arrivals import ArrivalProcess, JobArrival, make_arrival_process

__all__ = [
    "DropFailurePolicy",
    "FCFSPolicy",
    "InterleavedPolicy",
    "JobFailurePolicy",
    "JobRecord",
    "MultiJobResult",
    "PartitionedPolicy",
    "PlatformHealth",
    "ResubmitFailurePolicy",
    "RetryFailurePolicy",
    "StreamPolicy",
    "make_failure_policy",
    "make_stream_policy",
    "simulate_stream",
]

#: ``run_job(job, work, workers, seed, start) -> SimResult`` — the
#: callback the grant step uses to give the (sub-)star to one job's slice.
#: ``start`` is the grant's absolute stream time (the fault plane
#: projects its timeline at that offset; fault-free runs ignore it).
JobRunner = typing.Callable[
    [JobArrival, float, tuple[int, ...], "int | None", float], SimResult
]

#: Relative tolerance for "the grant delivered everything it dispatched".
_DELIVERY_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class JobRecord:
    """One job's stream-level outcome.

    ``results`` holds the engine-native, job-relative simulation results
    (one per service slice — FCFS and partitioned grant exactly one per
    attempt); ``slice_starts`` places each slice on the stream's
    absolute timeline and ``slice_workers`` gives the *global* worker
    indices each slice actually ran on (a subset of ``workers``:
    fault-plane streams shrink the live set as workers die).
    ``failed`` marks a job its failure policy gave up on (``failure``
    names the reason); ``attempts`` counts service grants — one per
    entry of ``results`` — plus, under the exclusive policies, admission
    checks that found no live worker;
    ``resubmissions`` counts resubmit-to-survivors re-grants.
    """

    job: JobArrival
    start: float
    finish: float
    workers: tuple[int, ...]
    results: tuple[SimResult, ...]
    slice_starts: tuple[float, ...]
    slice_workers: tuple[tuple[int, ...], ...]
    failed: bool = False
    failure: str = ""
    attempts: int = 1
    resubmissions: int = 0

    def workers_for_slice(self, index: int) -> tuple[int, ...]:
        """Global worker indices slice ``index`` ran on."""
        return self.slice_workers[index]

    # -- queueing quantities --------------------------------------------------
    @property
    def wait(self) -> float:
        """Seconds between arrival and first service (head-of-line delay)."""
        return self.start - self.job.time

    @property
    def response(self) -> float:
        """Seconds between arrival and completion (sojourn time)."""
        return self.finish - self.job.time

    @property
    def service(self) -> float:
        """Pure processing time: the sum of the job's slice makespans."""
        return sum(r.makespan for r in self.results)

    @property
    def slowdown(self) -> float:
        """Response over service — 1.0 means the job never queued."""
        service = self.service
        return self.response / service if service > 0 else 1.0

    # -- work accounting ------------------------------------------------------
    @property
    def dispatched_work(self) -> float:
        """Workload units actually sent across all slices."""
        return sum(r.dispatched_work for r in self.results)

    @property
    def delivered_work(self) -> float:
        """Workload units that finished computing across all slices."""
        return sum(r.delivered_work for r in self.results)

    @property
    def work_lost(self) -> float:
        """Workload units lost to worker crashes across all slices."""
        return sum(r.work_lost for r in self.results)


@dataclasses.dataclass(frozen=True)
class MultiJobResult:
    """Outcome of one simulated job stream.

    ``jobs`` is ordered by service order (arrival order under every
    in-tree policy).  Per-job engine results stay job-relative; the
    stream-level timeline is in each :class:`JobRecord`.  Fault-plane
    streams additionally carry the stream-level event substream
    (``stream_events``: ``worker_excluded`` / ``job_failed`` /
    ``job_resubmitted``) and the health tracker's exclusion ledger
    (``excluded``: ``(worker, crash_time)`` pairs, sorted by time).
    """

    platform: PlatformSpec
    policy: str
    scheduler_name: str
    engine: str
    seed: int | None
    jobs: tuple[JobRecord, ...]
    failure_policy: str = "drop"
    fault_spec: str = "none"
    stream_events: tuple[SimEvent, ...] = ()
    excluded: tuple[tuple[int, float], ...] = ()

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def horizon(self) -> float:
        """Completion time of the whole stream (last job's finish)."""
        return max((j.finish for j in self.jobs), default=0.0)

    @property
    def total_work(self) -> float:
        """Sum of the jobs' requested workloads."""
        return sum(j.job.work for j in self.jobs)

    @property
    def delivered_work(self) -> float:
        return sum(j.delivered_work for j in self.jobs)

    @property
    def dispatched_work(self) -> float:
        return sum(j.dispatched_work for j in self.jobs)

    @property
    def work_lost(self) -> float:
        return sum(j.work_lost for j in self.jobs)

    # -- fault-plane accounting -----------------------------------------------
    @property
    def completed_jobs(self) -> tuple[JobRecord, ...]:
        """Records of the jobs that completed (``not failed``)."""
        return tuple(j for j in self.jobs if not j.failed)

    @property
    def jobs_failed(self) -> int:
        return sum(1 for j in self.jobs if j.failed)

    @property
    def jobs_resubmitted(self) -> int:
        """Jobs that were resubmitted to survivors at least once."""
        return sum(1 for j in self.jobs if j.resubmissions > 0)

    @property
    def workers_excluded(self) -> tuple[int, ...]:
        """Global indices of workers excluded by health, in exclusion order."""
        return tuple(w for w, _ in self.excluded)

    def job_record(self, job_id: int) -> JobRecord:
        """The record of one job by id."""
        for rec in self.jobs:
            if rec.job.job_id == job_id:
                return rec
        raise KeyError(f"no job with id {job_id}")

    def max_queue_depth(self) -> int:
        """Peak number of jobs in the system (arrived, not yet finished).

        Departures at the same instant as an arrival are counted first,
        matching the canonical event order (``job_done`` sorts before
        ``job_arrival`` at one timestamp).  Failed jobs depart at their
        failure instant.
        """
        deltas = []
        for rec in self.jobs:
            deltas.append((rec.job.time, 1))
            deltas.append((rec.finish, -1))
        depth = peak = 0
        for _, delta in sorted(deltas, key=lambda d: (d[0], d[1])):
            depth += delta
            peak = max(peak, depth)
        return peak

    def events(self, include_sim: bool = False) -> tuple[SimEvent, ...]:
        """The stream's canonical event stream.

        Always contains the job-level kinds — ``job_arrival`` /
        ``job_start`` / ``job_done`` at the job's absolute arrival, first
        service and completion instants (``worker=-1``, ``chunk=job_id``,
        ``size=work``, ``phase=policy``) — plus the stream-fault
        substream (``worker_excluded`` / ``job_failed`` /
        ``job_resubmitted``) when a fault plane was active.  A job that
        never received a grant has no ``job_start``; a failed job has
        ``job_failed`` instead of ``job_done``.  With
        ``include_sim=True`` the per-slice engine streams are merged in,
        shifted onto the absolute timeline, with chunk indices
        renumbered stream-unique and worker indices mapped back to the
        full star's numbering — ready for Chrome-trace export and the
        well-formedness properties.
        """
        events: list[SimEvent] = list(self.stream_events)
        chunk_offset = 0
        for rec in self.jobs:
            job = rec.job
            events.append(
                SimEvent(job.time, "job_arrival", -1, chunk=job.job_id,
                         size=job.work, phase=self.policy)
            )
            if rec.results:
                events.append(
                    SimEvent(rec.start, "job_start", -1, chunk=job.job_id,
                             size=job.work, phase=self.policy)
                )
            if not rec.failed:
                events.append(
                    SimEvent(rec.finish, "job_done", -1, chunk=job.job_id,
                             size=job.work, phase=self.policy,
                             detail=self.scheduler_name)
                )
            if include_sim:
                for i, (offset, result) in enumerate(
                    zip(rec.slice_starts, rec.results)
                ):
                    slice_workers = rec.workers_for_slice(i)
                    for e in events_from_result(result):
                        worker = slice_workers[e.worker] if e.worker >= 0 else e.worker
                        chunk = e.chunk + chunk_offset if e.chunk >= 0 else e.chunk
                        events.append(
                            dataclasses.replace(
                                e, time=e.time + offset, worker=worker, chunk=chunk
                            )
                        )
                    chunk_offset += result.num_chunks
        return canonical_order(events)


# -- platform health ----------------------------------------------------------

class PlatformHealth:
    """Stream-clock worker availability, fed by observed fault evidence.

    The tracker is the stream's memory between grants: the per-grant
    engines each see only their own projected timeline, while the health
    tracker accumulates what the master has *observed* — a worker whose
    permanent crash has been seen (via a grant's loss ledger, the
    engines' upfront crash watchers, or an admission-time check against
    the stream timeline) is **dead** and excluded from every later
    admission.  Only crashes exclude: a paused or slowed worker stays
    admissible (it computes, just later or slower), and the stream's
    capacity metrics discount crashed workers only.

    Exclusions are recorded at the worker's *crash instant* (the truth on
    the stream clock), not at the observation instant, so the exclusion
    ledger is independent of which grant happened to reveal the crash.
    """

    def __init__(
        self,
        num_workers: int,
        plane: "StreamFaultSchedule | None" = None,
    ) -> None:
        self._n = int(num_workers)
        self._plane = plane
        self._dead: dict[int, float] = {}
        #: ``worker_excluded`` events, one per dead worker, in discovery
        #: order (re-sorted canonically by the stream result).
        self.events: list[SimEvent] = []

    @property
    def num_workers(self) -> int:
        return self._n

    @property
    def dead(self) -> frozenset[int]:
        """Global indices of workers observed permanently crashed."""
        return frozenset(self._dead)

    def death_time(self, worker: int) -> float:
        """Absolute crash instant of an excluded worker (``inf`` = live)."""
        return self._dead.get(worker, math.inf)

    def excluded_pairs(self) -> tuple[tuple[int, float], ...]:
        """``(worker, crash_time)`` pairs, sorted by (time, worker)."""
        return tuple(sorted(self._dead.items(), key=lambda kv: (kv[1], kv[0])))

    def _mark_dead(self, worker: int, when: float) -> None:
        if worker not in self._dead:
            self._dead[worker] = when
            self.events.append(
                SimEvent(when, "worker_excluded", worker, detail="crash")
            )

    def live(self, workers: typing.Sequence[int], now: float) -> tuple[int, ...]:
        """The subset of ``workers`` admissible at stream time ``now``.

        Consults the stream timeline (a crash at exactly ``now`` counts
        as dead — the loss rule ``comp_end > crash`` makes any new grant
        futile) in addition to previously observed deaths, so a worker
        whose crash fell *between* grants is still excluded.
        """
        out: list[int] = []
        for w in workers:
            if w in self._dead:
                continue
            ct = self._plane.crash_time(w) if self._plane is not None else math.inf
            if ct <= now:
                self._mark_dead(w, ct)
            else:
                out.append(w)
        return tuple(out)

    def observe_slice(
        self,
        workers: typing.Sequence[int],
        offset: float,
        result: SimResult,
    ) -> None:
        """Fold one grant's evidence into the tracker.

        ``workers`` are the global indices the grant ran on, ``offset``
        its absolute start.  Lost records mark their worker dead (at the
        stream timeline's crash instant when known, else at the loss
        observation instant); with a stream timeline attached, crashes
        that fell inside the grant's window are picked up even when the
        worker had no chunk in flight.
        """
        horizon = offset + result.makespan
        if self._plane is not None:
            for w in workers:
                ct = self._plane.crash_time(w)
                if ct <= horizon:
                    self._mark_dead(w, ct)
        for r in result.lost_records:
            w = workers[r.worker]
            when = self._plane.crash_time(w) if self._plane is not None else None
            if when is None or not math.isfinite(when):
                when = offset + r.loss_time
            self._mark_dead(w, when)


# -- job failure policies -----------------------------------------------------

class JobFailurePolicy:
    """Abstract policy for jobs whose grant cannot run or falls short.

    A grant *fails* when its candidate worker set is wholly dead at
    admission, or when it delivers less than the work it was asked to
    (chunks lost to crashes with no recovering scheduler).  The policy
    is configuration only — the serve loops in this module interpret it:

    * ``max_attempts`` caps the total service attempts per grant
      (admission checks included); exhausting it fails the job.
    * ``backoff(attempt, seed)`` is the delay before re-attempt
      ``attempt + 1`` (exclusive policies only; the interleaved rotation
      provides natural spacing and skips backoff).
    * ``resubmits`` — re-grant only the *undelivered remainder* to the
      surviving workers instead of re-running from scratch.
    """

    #: Spec-style name (recorded on the stream result).
    name: str = "policy"
    max_attempts: int = 1

    @property
    def resubmits(self) -> bool:
        return False

    def backoff(self, attempt: int, seed: "int | None" = None) -> float:
        return 0.0


@dataclasses.dataclass(frozen=True)
class DropFailurePolicy(JobFailurePolicy):
    """Fail a job on its first unsuccessful grant (the default)."""

    name = "drop"
    max_attempts = 1


@dataclasses.dataclass(frozen=True)
class RetryFailurePolicy(JobFailurePolicy):
    """Re-run a failed grant from scratch with deterministic backoff.

    Mirrors the sweep harness's :class:`~repro.experiments.resilient.
    RetryPolicy`: exponential backoff ``base * multiplier**(attempt-1)``
    with an optional multiplicative jitter drawn deterministically from
    the job seed via :func:`~repro.errors.rng.stream_for` — the same
    stream seed always yields the same backoff sequence.  Backoff is
    simulated stream time, not wall time.
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_base}")
        if self.backoff_multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter_fraction}"
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"retry:attempts={self.max_attempts}"

    def backoff(self, attempt: int, seed: "int | None" = None) -> float:
        delay = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        if self.jitter_fraction > 0:
            u = float(stream_for(seed, attempt, 2).random())
            delay *= 1.0 + self.jitter_fraction * (2.0 * u - 1.0)
        return delay


@dataclasses.dataclass(frozen=True)
class ResubmitFailurePolicy(JobFailurePolicy):
    """Immediately re-grant the undelivered remainder to the survivors.

    The remainder shrinks by whatever each attempt delivered, so
    progress is monotone; ``max_attempts`` still bounds the grant count
    (a remainder that makes no progress exhausts it).
    """

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.max_attempts}")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"resubmit:attempts={self.max_attempts}"

    @property
    def resubmits(self) -> bool:
        return True


def _integral(what: str, name: str, value: float) -> int:
    """A spec parameter that must be a whole number, as an ``int``."""
    if value != int(value):
        raise ValueError(f"{what} parameter {name!r} must be integral")
    return int(value)


def make_failure_policy(spec: "str | JobFailurePolicy") -> JobFailurePolicy:
    """Parse a failure-policy spec into a :class:`JobFailurePolicy`.

    Accepted forms: ``drop``, ``retry`` /
    ``retry:attempts=3,backoff=1,mult=2,jitter=0.25``, ``resubmit`` /
    ``resubmit:attempts=4``; an already-constructed policy passes
    through unchanged.
    """
    if isinstance(spec, JobFailurePolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"failure policy spec must be a string, got {type(spec).__name__}"
        )
    kind, _, body = spec.strip().partition(":")
    kind = kind.strip()
    what = "failure-policy"
    params = parse_kv(body, kind, what)
    if kind == "drop":
        take(params, kind, what=what)
        return DropFailurePolicy()
    if kind == "retry":
        attempts, backoff, mult, jitter = take(
            params, kind, "attempts", "backoff", "mult", "jitter", what=what,
            attempts=3, backoff=1.0, mult=2.0, jitter=0.25,
        )
        return RetryFailurePolicy(
            max_attempts=_integral(what, "attempts", attempts),
            backoff_base=backoff,
            backoff_multiplier=mult,
            jitter_fraction=jitter,
        )
    if kind == "resubmit":
        (attempts,) = take(params, kind, "attempts", what=what, attempts=4)
        return ResubmitFailurePolicy(max_attempts=_integral(what, "attempts", attempts))
    raise ValueError(
        f"unknown failure policy {kind!r}; available: drop, retry, resubmit"
    )


@dataclasses.dataclass
class _StreamRuntime:
    """Per-call coordinator threading the fault plane through a policy.

    Bundles the health tracker (which holds the realized stream
    timeline), the failure policy, the :data:`JobRunner` that grants
    workers to a job and the job-seed rule; collects the job-level
    stream-fault events.  With no plane (fault-free streams) the tracker
    admits every worker and no event is ever recorded.  ``slice_seeds``
    maps a sliced job's id to the seeds of its slices, derived at stream
    start; a slice it lacks derives its seed on demand.
    """

    health: PlatformHealth
    failure: JobFailurePolicy
    policy_name: str
    run_job: JobRunner
    job_seed: typing.Callable[[JobArrival], int]
    slice_seeds: dict[int, tuple[int, ...]] = dataclasses.field(default_factory=dict)
    events: list[SimEvent] = dataclasses.field(default_factory=list)


def _attempt_seed(seed: "int | None", attempt: int) -> int:
    """Seed of re-attempt ``attempt`` (1-based) of one service grant.

    Keyed ``(attempt, 1)`` so it can never collide with the
    single-key-tuple per-slice seeds of :func:`_slice_seed`.
    """
    return int(stream_for(seed, attempt, 1).integers(0, 2**63 - 1))


def _slice_seed(job_seed: "int | None", slice_index: int) -> int:
    """Per-slice seed derived from the job seed (multi-slice jobs only)."""
    return int(stream_for(job_seed, slice_index).integers(0, 2**63 - 1))


def _is_seed(value) -> bool:
    """Whether ``value`` is a plain non-negative ``int``.

    Only such seeds and job ids are derived in batch at stream start;
    anything else derives when it is used, raising where it always did.
    """
    return type(value) is int and value >= 0


def _first_attempt_seeds(
    jobs: tuple[JobArrival, ...], seed: "int | None", policy: StreamPolicy
) -> tuple[dict[int, int], dict[int, tuple[int, ...]], list[int]]:
    """Every first-attempt run seed of a stream, derived in batch.

    Returns ``(job_seeds, slice_seeds, run_seeds)``: the derived seeds of
    seedless jobs by job id (one :func:`child_seeds` call, equal to
    ``job_seed``'s ``stream_for(seed, job_id)`` draw), the seeds of every
    sliced job's slices by job id (one more call, equal to
    :func:`_slice_seed`), and the seeds the grants' first attempts run
    under: the job seed of an unsliced job, the slice seeds of a sliced
    one.  Re-attempt and backoff seeds depend on how grants go and are
    left to derive when used.
    """
    entropy = 0 if seed is None else seed
    seedless = [j.job_id for j in jobs if j.seed is None and _is_seed(j.job_id)]
    job_seeds: dict[int, int] = {}
    if seedless and _is_seed(entropy):
        derived = child_seeds(entropy, [(i,) for i in seedless]).tolist()
        job_seeds = dict(zip(seedless, derived))
    plans = []  # (job_id, job seed, slice count)
    run_seeds: list[int] = []
    for job in jobs:
        job_seed = job.seed if job.seed is not None else job_seeds.get(job.job_id)
        if not _is_seed(job_seed):
            continue
        count = policy.seeded_slices(job.work)
        if count:
            plans.append((job.job_id, job_seed, count))
        else:
            run_seeds.append(job_seed)
    slice_seeds: dict[int, tuple[int, ...]] = {}
    if plans:
        derived = child_seeds(
            [s for _, s, count in plans for _ in range(count)],
            [(k,) for _, _, count in plans for k in range(count)],
        ).tolist()
        start = 0
        for job_id, _, count in plans:
            slice_seeds[job_id] = tuple(derived[start : start + count])
            run_seeds.extend(slice_seeds[job_id])
            start += count
    return job_seeds, slice_seeds, run_seeds


class _JobService:
    """One job's grant state, the same for every stream policy.

    Holds the job's remaining slices (one under the exclusive policies),
    the grants made so far and the failed attempts at the current slice.
    :meth:`grant` is the one place a job gets workers; :meth:`close`
    builds the job's one :class:`JobRecord` (``record``) when its last
    slice is delivered or the failure policy gives up.
    """

    def __init__(
        self,
        rt: _StreamRuntime,
        job: JobArrival,
        workers: tuple[int, ...],
        sizes: typing.Sequence[float],
        sliced: bool = False,
    ) -> None:
        self.rt = rt
        self.job = job
        self.workers = workers
        self.seed = rt.job_seed(job)
        self.sizes = list(sizes)
        self.sliced = sliced
        self.slice_seeds = rt.slice_seeds.get(job.job_id, ())
        self.slice = 0  # index of the slice being served
        self.fails = 0  # failed attempts at that slice
        self.attempts = 0
        self.resubmissions = 0
        self.results: list[SimResult] = []
        self.starts: list[float] = []
        self.slice_workers: list[tuple[int, ...]] = []
        self.record: JobRecord | None = None

    def grant(self, live: tuple[int, ...], t: float) -> float:
        """Serve the current slice on ``live`` from ``t``; return the grant's end.

        A slice delivered in full advances to the next; the last one
        completes the job.  A short grant is a failed attempt: the job
        fails once the slice has used ``max_attempts``, and otherwise,
        under ``resubmits``, the undelivered remainder replaces the
        slice.  A sliced job runs slice ``k`` under its own seed, and
        re-attempt ``a`` of a slice under a seed derived from that.
        """
        rt = self.rt
        size = self.sizes[0]
        seed = self.slice_seed() if self.sliced else self.seed
        if self.fails:
            seed = _attempt_seed(seed, self.fails)
        result = rt.run_job(self.job, size, live, seed, t)
        rt.health.observe_slice(live, t, result)
        self.attempts += 1
        self.results.append(result)
        self.starts.append(t)
        self.slice_workers.append(live)
        end = t + result.makespan
        delivered = result.delivered_work
        if delivered + _DELIVERY_TOL * max(1.0, size) >= size:
            self.sizes.pop(0)
            self.slice += 1
            self.fails = 0
            if not self.sizes:
                self.close(end)
            return end
        self.fails += 1
        if self.fails >= rt.failure.max_attempts:
            # Only a policy allowing one attempt gives up on the first.
            reason = "delivery-shortfall" if self.fails == 1 else "attempts-exhausted"
            self.close(end, reason)
        elif rt.failure.resubmits:
            self.sizes[0] = size - delivered
            self.resubmissions += 1
            rt.events.append(
                SimEvent(end, "job_resubmitted", -1, chunk=self.job.job_id,
                         size=self.sizes[0], phase=rt.policy_name,
                         detail=f"attempt={self.fails + 1}")
            )
        return end

    def slice_seed(self) -> int:
        """The current slice's seed, derived at stream start if it could be."""
        if self.slice < len(self.slice_seeds):
            return self.slice_seeds[self.slice]
        return _slice_seed(self.seed, self.slice)

    def serve_exclusive(self, start: float) -> float:
        """Serve the job alone on its workers from ``start``; return when they free up.

        The FCFS/partitioned loop: every attempt admits the live workers
        only, an attempt that finds none counts as failed, and a failed
        attempt is re-tried after the failure policy's backoff (a
        resubmit follows at once).  Without a fault plane this is exactly
        one grant on all the workers.
        """
        rt, t = self.rt, start
        while self.record is None:
            live = rt.health.live(self.workers, t)
            if live:
                t = self.grant(live, t)
            else:
                self.attempts += 1
                self.fails += 1
                if self.fails >= rt.failure.max_attempts:
                    self.close(t, "no-live-workers")
            if self.record is None and not (live and rt.failure.resubmits):
                t += rt.failure.backoff(self.fails, self.seed)
        return t

    def close(self, when: float, failure: str = "") -> None:
        """Finish the job at ``when``; a ``failure`` reason fails it."""
        job = self.job
        if failure:
            self.rt.events.append(
                SimEvent(when, "job_failed", -1, chunk=job.job_id, size=job.work,
                         phase=self.rt.policy_name, detail=failure)
            )
        self.record = JobRecord(
            job=job, start=self.starts[0] if self.starts else when, finish=when,
            workers=self.workers, results=tuple(self.results),
            slice_starts=tuple(self.starts), slice_workers=tuple(self.slice_workers),
            failed=bool(failure), failure=failure, attempts=self.attempts,
            resubmissions=self.resubmissions,
        )


# -- inter-job policies -------------------------------------------------------

class StreamPolicy:
    """Abstract inter-job policy: decides when and where each job runs.

    A policy is configuration only.  :meth:`run` receives the arrival
    trace sorted by ``(time, job_id)`` plus the stream runtime and
    returns one :class:`JobRecord` per job.  Every job is served through
    the runtime's :data:`JobRunner`, one ``_JobService.grant`` at a
    time, so policies never touch engines directly.  The runtime also
    carries the fault plane (health tracker + failure policy);
    fault-free streams pass one without a plane.
    """

    #: Spec-style name (used as the ``phase`` label of job events).
    name: str = "policy"

    def seeded_slices(self, work: float) -> int:
        """How many per-slice seeds a job of ``work`` units is served under.

        Zero (the base rule) when the job runs unsliced under its job
        seed.  The stream derives these seeds at its start; a policy
        that slices otherwise still gets its seeds, one at a time.
        """
        return 0

    def run(
        self,
        platform: PlatformSpec,
        jobs: tuple[JobArrival, ...],
        stream: _StreamRuntime,
    ) -> tuple[JobRecord, ...]:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class PartitionedPolicy(StreamPolicy):
    """Processor-partitioned sharing: ``parts`` independent FCFS queues.

    Workers are split into ``parts`` contiguous, size-balanced groups
    (larger groups first); each job is assigned to the partition that can
    start it earliest, ties to the lowest partition index.  ``parts=1``
    is :class:`FCFSPolicy` under another name.  Under a fault plane,
    partitions whose workers are all dead at their candidate start are
    skipped (degradation-aware admission); if every partition is dead
    the earliest one is nominally assigned and the failure policy fails
    the job there.
    """

    parts: int = 2

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"partitioned:parts={self.parts}"

    def __post_init__(self) -> None:
        if self.parts < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")

    def partitions(self, platform: PlatformSpec) -> tuple[tuple[int, ...], ...]:
        """The contiguous worker groups (like ``numpy.array_split``)."""
        n, k = platform.N, self.parts
        if k > n:
            raise ValueError(f"cannot split {n} workers into {k} partitions")
        base, extra = divmod(n, k)
        groups: list[tuple[int, ...]] = []
        cursor = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            groups.append(tuple(range(cursor, cursor + size)))
            cursor += size
        return tuple(groups)

    def run(self, platform, jobs, stream):
        groups = self.partitions(platform)
        free = [0.0] * len(groups)
        records: list[JobRecord] = []
        for job in jobs:
            starts = [max(job.time, f) for f in free]
            indices = range(len(groups))
            viable = [i for i in indices if stream.health.live(groups[i], starts[i])]
            part = min(viable or indices, key=lambda i: (starts[i], i))
            service = _JobService(stream, job, groups[part], (job.work,))
            free[part] = service.serve_exclusive(starts[part])
            records.append(service.record)
        return tuple(records)


@dataclasses.dataclass(frozen=True)
class FCFSPolicy(PartitionedPolicy):
    """Exclusive first-come-first-served service of the whole star.

    One partition holding every worker: ``partitioned:parts=1`` under
    its own name.
    """

    parts: int = dataclasses.field(default=1, init=False)

    @property
    def name(self) -> str:
        return "fcfs"


@dataclasses.dataclass(frozen=True)
class InterleavedPolicy(StreamPolicy):
    """Round-interleaved sharing: jobs time-share the star in work slices.

    Each job's load is cut into ``slices`` equal slices (the last absorbs
    the float remainder, so the sizes sum to the job's work exactly as
    dispatched).  The master serves the active jobs' next slices in
    round-robin order, admitting newly arrived jobs at the back of the
    rotation; when no job is active, time jumps to the next arrival.
    ``slices=1`` degenerates to :class:`FCFSPolicy`, except in how
    failed grants are re-attempted under a fault plane.

    Under a fault plane each slice grant goes to the live workers only;
    a failed slice is re-served at the job's next rotation turn (the
    rotation itself provides the retry spacing, so the failure policy's
    backoff delays are not added), and a wholly dead star fails jobs
    immediately — crashes are permanent, so waiting cannot help and
    the rotation must not idle-spin.
    """

    slices: int = 4

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"interleaved:slices={self.slices}"

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ValueError(f"slices must be >= 1, got {self.slices}")

    def seeded_slices(self, work: float) -> int:
        return len(self.slice_sizes(work)) if self.slices > 1 else 0

    def slice_sizes(self, work: float) -> tuple[float, ...]:
        """Cut one job's work into slices (sizes > 0, summing to work)."""
        if self.slices == 1:
            return (work,)
        per = work / self.slices
        tail = work - per * (self.slices - 1)
        if per <= 0 or tail <= 0:
            return (work,)
        return (per,) * (self.slices - 1) + (tail,)

    def run(self, platform, jobs, stream):
        workers = tuple(range(platform.N))
        services = [
            _JobService(
                stream, job, workers, self.slice_sizes(job.work), self.slices > 1
            )
            for job in jobs
        ]
        pending = list(services)
        active: list[_JobService] = []
        t = 0.0
        rr = 0

        def admit(now: float) -> None:
            while pending and pending[0].job.time <= now:
                active.append(pending.pop(0))

        admit(t)
        while pending or active:
            if not active:
                t = max(t, pending[0].job.time)
                admit(t)
                rr = 0
            idx = rr % len(active)
            service = active[idx]
            live = stream.health.live(workers, t)
            if live:
                t = service.grant(live, t)
            else:
                service.close(t, "no-live-workers")
            if service.record is None:
                rr = idx + 1
            else:
                active.pop(idx)
                rr = idx
            admit(t)
        return tuple(s.record for s in services)


def make_stream_policy(spec: "str | StreamPolicy") -> StreamPolicy:
    """Parse a policy spec into a :class:`StreamPolicy`.

    Accepted forms: ``fcfs``, ``partitioned`` / ``partitioned:parts=K``,
    ``interleaved`` / ``interleaved:slices=S``; an already-constructed
    policy passes through unchanged.
    """
    if isinstance(spec, StreamPolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"policy spec must be a string, got {type(spec).__name__}")
    kind, _, body = spec.strip().partition(":")
    kind = kind.strip()
    params = parse_kv(body, kind, "policy")
    if kind == "fcfs":
        take(params, kind, what="policy")
        return FCFSPolicy()
    if kind == "partitioned":
        (parts,) = take(params, kind, "parts", what="policy", parts=2)
        return PartitionedPolicy(parts=_integral("policy", "parts", parts))
    if kind == "interleaved":
        (slices,) = take(params, kind, "slices", what="policy", slices=4)
        return InterleavedPolicy(slices=_integral("policy", "slices", slices))
    raise ValueError(
        f"unknown stream policy {kind!r}; available: fcfs, partitioned, interleaved"
    )


# -- the stream front door ----------------------------------------------------

def simulate_stream(
    platform: PlatformSpec,
    arrivals: "typing.Sequence[JobArrival] | ArrivalProcess | str",
    scheduler: "Scheduler | str" = "RUMR",
    error: float = 0.0,
    seed: int | None = None,
    policy: "StreamPolicy | str" = "fcfs",
    engine: str = "fast",
    faults: "typing.Any | None" = None,
    failure_policy: "JobFailurePolicy | str" = "drop",
    topology: "typing.Any | None" = None,
    tracer: "typing.Any | None" = None,
) -> MultiJobResult:
    """Run a stream of divisible loads through the scheduler/engine stack.

    Parameters
    ----------
    platform:
        The shared master-worker star all jobs contend for.
    arrivals:
        The job stream: a sequence of :class:`~repro.workloads.arrivals.
        JobArrival`, an :class:`~repro.workloads.arrivals.ArrivalProcess`
        (realized with ``seed``), or an arrival spec string like
        ``"poisson:rate=0.02,jobs=8,work=200"``.
    scheduler:
        Per-job divisible-load scheduler: a registry name (instantiated
        with ``make_scheduler(name, error)``) or a configured
        :class:`~repro.core.base.Scheduler` shared by every job.
    error:
        Prediction-error magnitude: each job slice runs under a fresh
        ``make_error_model("normal", error)`` (0 keeps the exact
        :class:`~repro.errors.NoError` path), and registry
        schedulers receive it as their error estimate.
    seed:
        Stream-level seed: realizes an :class:`ArrivalProcess`, derives
        the per-job seeds of arrivals that carry ``seed=None``, and
        realizes the one stream fault timeline (from its third spawned
        RNG child, the engines' fault stream discipline).
    policy:
        Inter-job policy (see :func:`make_stream_policy`).
    engine:
        Forwarded verbatim to every per-job :func:`~repro.sim.simulate`
        call.
    faults:
        Fault model or spec (see :func:`~repro.errors.faults.
        make_fault_model`), realized as **one** timeline on the absolute
        stream clock and projected into every grant — crashes persist
        across jobs, the health tracker excludes dead workers at
        admission, and ``failure_policy`` governs jobs that cannot
        finish.
    failure_policy:
        What to do with a grant that cannot run or falls short (see
        :func:`make_failure_policy`); only consulted under a fault
        plane.
    topology:
        Interconnect spec forwarded to every per-job ``simulate()``;
        ``sharedbw`` is rejected with ``faults`` (matching the
        single-job guard) because loss classification needs a completion
        time predictable at dispatch.
    tracer:
        Optional :class:`repro.obs.Tracer`; receives the stream's
        job-level events plus the merged per-slice simulation events —
        the same stream :meth:`MultiJobResult.events` derives.
    """
    from repro.core.registry import make_scheduler
    from repro.errors.faults import NoFaults, make_fault_model
    from repro.errors.models import make_error_model
    from repro.platform.topology import make_topology
    from repro.sim.result import simulate

    fault_model = make_fault_model(faults) if faults is not None else None
    if isinstance(fault_model, NoFaults):
        fault_model = None
    if fault_model is not None and make_topology(topology).kind == "sharedbw":
        raise ValueError(
            "fault injection is not supported on sharedbw topologies: loss "
            "classification needs a completion time predictable at dispatch "
            "(matching the single-job simulate() guard)"
        )
    failure = make_failure_policy(failure_policy)

    if isinstance(arrivals, str):
        arrivals = make_arrival_process(arrivals)
    if isinstance(arrivals, ArrivalProcess):
        arrivals = arrivals.generate(seed)
    jobs = tuple(sorted(arrivals, key=lambda a: (a.time, a.job_id)))
    ids = [a.job_id for a in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("arrival stream contains duplicate job_ids")
    sched = make_scheduler(scheduler, error) if isinstance(scheduler, str) else scheduler
    stream_policy = make_stream_policy(policy)

    plane: StreamFaultSchedule | None = None
    if fault_model is not None:
        plane = StreamFaultSchedule.realize(fault_model, platform, seed)
        if not plane.any_faults:
            plane = None
    health = PlatformHealth(platform.N, plane)
    # One sub-platform object per worker tuple for the whole stream: the
    # engines' identity-keyed topology binds hit on every grant that
    # reuses a tuple, and each sub-platform hashes once for the solvers.
    subs: dict[tuple[int, ...], PlatformSpec] = {}

    def run_job(job, work, workers, job_run_seed, start):
        if len(workers) == platform.N:
            sub = platform
        else:
            key = tuple(workers)
            sub = subs.get(key)
            if sub is None:
                sub = subs[key] = platform.subset(workers)
        # An all-clear stream timeline (plane None) is authoritative too.
        job_faults = (
            None if plane is None else FrozenFaults(plane.project(workers, start))
        )
        return simulate(
            sub, work, sched, make_error_model("normal", error),
            seed=job_run_seed, engine=engine, faults=job_faults, topology=topology,
        )

    job_seeds, slice_seeds, run_seeds = _first_attempt_seeds(jobs, seed, stream_policy)

    def job_seed(job: JobArrival) -> int:
        if job.seed is not None:
            return job.seed
        if job.job_id in job_seeds:
            return job_seeds[job.job_id]
        return int(stream_for(seed, job.job_id).integers(0, 2**63 - 1))

    runtime = _StreamRuntime(
        health, failure, stream_policy.name, run_job, job_seed, slice_seeds
    )
    # Each first attempt's comm and comp streams (the run seed's children
    # 0 and 1) are hashed here in one pass; simulate() reads them back.
    with StateTable(run_seeds).scope():
        records = stream_policy.run(platform, jobs, runtime)
    result = MultiJobResult(
        platform=platform,
        policy=stream_policy.name,
        scheduler_name=sched.name,
        engine=engine,
        seed=seed,
        jobs=records,
        failure_policy=failure.name,
        fault_spec=fault_model.spec if fault_model is not None else "none",
        stream_events=tuple(health.events) + tuple(runtime.events),
        excluded=health.excluded_pairs(),
    )
    if tracer is not None:
        for e in result.events(include_sim=True):
            tracer.emit(e.time, e.kind, e.worker, e.chunk, e.size, e.phase, e.detail)
    return result
