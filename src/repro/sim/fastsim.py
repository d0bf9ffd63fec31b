"""Specialized fast simulator for the master-worker platform.

Because the platform has exactly one serialized resource (the master's
link) and per-worker FIFO computation, the whole simulation collapses to a
single loop over dispatch decisions — no event calendar needed.  The only
subtlety is *observability*: dynamic schedulers must see a completion only
once the decision time has passed it, which the :class:`_FastView` enforces
with timestamp comparisons against the realized completion times.

The loop draws error perturbations in dispatch order from two independent
streams (communication, computation), exactly like the DES engine, so both
engines are trajectory-identical for a given seed.  Under fault injection a
third stream (the seed's third child, so the first two keep their draws;
derived only when something draws from it) realizes the run's
:class:`~repro.errors.faults.FaultSchedule` and feeds per-dispatch
link-spike draws; chunks whose computation would outlive
their worker's crash are *lost* — they free the pending set at
``max(crash_time, arrival)`` via a :class:`~repro.core.base.LossNote`,
deliver no work, and do not extend the makespan.

Every transfer follows its worker's
:class:`~repro.platform.topology.LinkPath` (see
:mod:`repro.platform.topology`): the master-link occupancy, then the
relay hops.  Because relay links are deterministic FIFO resources fed in
dispatch order, each chunk's whole relay traversal has a closed form —
:meth:`~repro.platform.topology.LinkPath.traverse` advances per-resource
busy chains exactly like ``worker_busy_until`` advances workers.  The
paper's star is the zero-hop path.  Shapes without a closed form
(:attr:`~repro.platform.topology.Topology.closed_form`) are declined:
fluid bandwidth sharing (``sharedbw``) and stars whose ports and result
returns contend for the master's links live in the DES engine only.
"""

from __future__ import annotations

import bisect
import heapq
import math

from repro.core.base import (
    WAIT,
    CompletionNote,
    DeadlockError,
    Dispatch,
    LossNote,
    MasterView,
    Scheduler,
)
from repro.errors.faults import CrashClock, FaultModel, sample_run
from repro.errors.models import ErrorModel
from repro.obs.events import chunk_events, crash_events, decision_events
from repro.platform.spec import PlatformSpec
from repro.platform.topology import TopologyError, bind_once, make_topology
from repro.sim.result import SimResult

__all__ = ["simulate_fast"]


class _NoteLog:
    """One kind of note (completions or losses), built when observed.

    The engine appends raw ``(time, chunk_index, worker, size)`` rows in
    dispatch order; note objects are made only for rows a source actually
    observes.  A new row's time is never below the decision time it was
    dispatched at, and chunk indices grow, so the observed
    ``(time, chunk_index)``-sorted prefix is append-only: only the rows
    still unobserved are ever re-sorted, and the observed tuple is cached
    until it grows.
    """

    __slots__ = ("_make", "rows", "_unseen", "_notes", "_cache")

    def __init__(self, make):
        self._make = make
        #: Rows appended by the engine since the last observation.
        self.rows: list[tuple[float, int, int, float]] = []
        self._unseen: list[tuple[float, int, int, float]] = []
        self._notes: list = []
        self._cache: tuple = ()

    def observed(self, now: float) -> tuple:
        unseen = self._unseen
        if self.rows:
            # Rows arrive nearly sorted (exit times are monotone per
            # worker), so timsort merges them cheaply.
            unseen.extend(self.rows)
            unseen.sort()
            self.rows.clear()
        cutoff = bisect.bisect_right(unseen, (now, math.inf))
        if cutoff:
            make = self._make
            self._notes.extend([make(*row) for row in unseen[:cutoff]])
            del unseen[:cutoff]
            self._cache = tuple(self._notes)
        return self._cache


class _FastView(MasterView):
    """Master-observable state backed by the fast engine's arrays.

    Each worker's exits from the pending set (completion or loss-
    observation times) are nondecreasing — FIFO computation, and a lost
    chunk's ``max(crash, arrival)`` never precedes the worker's earlier
    exits — so a worker is idle exactly when its *latest* exit is
    ``<= now``.  The idle queries read that flat list in O(1) per worker;
    ``pending_chunks``/``pending_work`` keep their bisect form.
    """

    __slots__ = (
        "_now",
        "_n",
        "_sent_count",
        "_ends",
        "_end_work_prefix",
        "_last_end",
        "_max_end",
        "_completions",
        "_losses",
        "_crashes",
    )

    def __init__(self, n: int, crash_times: tuple[float, ...] | None = None):
        self._now = 0.0
        self._n = n
        # None when the run is fault-free; faults_possible keys off it so
        # recovery-aware sources skip their fault bookkeeping entirely.
        self._crashes = CrashClock(crash_times) if crash_times is not None else None
        self._sent_count = [0] * n
        # Per-worker realized exit times (nondecreasing) and the matching
        # prefix sums of exited work, for O(log) pending queries.
        self._ends: list[list[float]] = [[] for _ in range(n)]
        self._end_work_prefix: list[list[float]] = [[0.0] for _ in range(n)]
        self._last_end = [-math.inf] * n
        self._max_end = -math.inf
        self._completions = _NoteLog(CompletionNote)
        self._losses = _NoteLog(LossNote)

    @property
    def now(self) -> float:
        return self._now

    @property
    def num_workers(self) -> int:
        return self._n

    def pending_chunks(self, worker: int) -> int:
        done = bisect.bisect_right(self._ends[worker], self._now)
        return self._sent_count[worker] - done

    def pending_work(self, worker: int) -> float:
        # Prefix-difference form, bit-identical to the DES view (see
        # _DesView in repro.sim.engine) so dynamic-scheduler tie-breaks
        # resolve the same way in both engines.
        done = bisect.bisect_right(self._ends[worker], self._now)
        prefix = self._end_work_prefix[worker]
        return prefix[self._sent_count[worker]] - prefix[done]

    def is_idle(self, worker: int) -> bool:
        return self._last_end[worker] <= self._now

    def first_idle(self, exclude=()) -> int | None:
        now = self._now
        for i, end in enumerate(self._last_end):
            if end <= now and i not in exclude:
                return i
        return None

    def any_pending(self) -> bool:
        return self._max_end > self._now

    def observed_completions(self) -> tuple[CompletionNote, ...]:
        return self._completions.observed(self._now)

    # -- fault observability -------------------------------------------------
    @property
    def faults_possible(self) -> bool:
        return self._crashes is not None

    def crashed_workers(self) -> tuple[int, ...]:
        if self._crashes is None:
            return ()
        return self._crashes.crashed_at(self._now)

    def observed_losses(self) -> tuple[LossNote, ...]:
        return self._losses.observed(self._now)

    # -- engine-side mutation ------------------------------------------------
    def _note_dispatch(
        self, worker: int, size: float, end: float, index: int, lost: bool = False
    ) -> None:
        # ``end`` is the chunk's exit from the pending set: its completion
        # time, or — for a lost chunk — its loss-observation time.  Either
        # way it joins the per-worker nondecreasing ends list, so pending
        # accounting needs no loss special case.
        self._sent_count[worker] += 1
        self._ends[worker].append(end)
        prefix = self._end_work_prefix[worker]
        prefix.append(prefix[-1] + size)
        self._last_end[worker] = end
        if end > self._max_end:
            self._max_end = end
        log = self._losses if lost else self._completions
        log.rows.append((end, index, worker, size))


def simulate_fast(
    platform: PlatformSpec,
    total_work: float,
    scheduler: Scheduler,
    error_model: ErrorModel,
    seed: int | None = None,
    collect_records: bool = True,
    faults: FaultModel | None = None,
    tracer=None,
    topology=None,
) -> SimResult:
    """Simulate one run with the specialized engine (see module docstring).

    ``collect_records=False`` enables the makespan-only mode used by the
    sweep harness: no timeline rows are kept, so the returned result
    carries empty ``rows`` and ``records``.  Otherwise the loop keeps one
    raw row per chunk (:data:`~repro.core.chunks.ROW_FIELDS`) and the
    result holds them as they are; it builds its
    :class:`~repro.core.chunks.DispatchRecord` objects only when
    ``records`` is read.  The trajectory — and therefore the makespan and
    the random-stream consumption — is identical in both modes.

    ``faults`` enables fault injection: the model's
    :class:`~repro.errors.faults.FaultSchedule` is realized before the
    first dispatch (:func:`~repro.errors.faults.sample_run`), from a third
    RNG stream when the model or the schedule's spikes draw one.  Passing
    ``None`` (not merely :class:`~repro.errors.faults.NoFaults`) keeps the
    run on the fault-free code path with two streams.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives the run's event
    stream; ``None`` (the default) skips all emission work.

    ``topology`` (a spec string or :class:`~repro.platform.topology.
    Topology`) picks the interconnect; ``None`` means the paper's star.
    Chains and trees have closed-form relay recurrences handled here;
    shapes without one (``sharedbw``, stars with ports or result
    returns) raise :class:`TopologyError` (DES only —
    :func:`repro.sim.result.simulate` routes them automatically).
    """
    topo = make_topology(topology)
    if not topo.closed_form:
        raise TopologyError(
            f"{topo} has no closed-form recurrence; use the DES engine "
            "(simulate(..., engine='fast') routes it there)"
        )
    bound = bind_once(topo, platform)
    relay_busy: list[float] = [0.0] * bound.num_relay_links
    rng_comm, rng_comp, schedule, rng_fault = sample_run(faults, platform, seed)
    source = scheduler.create_source(bound.effective_platform, total_work)
    next_dispatch = source.next_dispatch
    perturb_comm = error_model.perturber(rng_comm)
    perturb_comp = error_model.perturber(rng_comp)
    advance = error_model.advance
    workers = platform.workers
    paths = bound.paths
    direct = bound.direct
    n = platform.N

    view = _FastView(n, schedule.crash_times if schedule is not None else None)
    # A schedule skips the per-chunk rules of the fault kinds it lacks.
    stretches = schedule is not None and (schedule.any_pause or schedule.any_slow)
    spikes = schedule is not None and schedule.spike_prob > 0.0
    note_dispatch = view._note_dispatch
    worker_busy_until = [0.0] * n
    work_lost = 0.0
    # Min-heap of future completion times, for WAIT wake-ups.
    future_ends: list[float] = []
    # One raw timeline row per chunk, the DispatchRecord fields after
    # ``index`` (ROW_FIELDS); the result keeps them as they are.
    rows: list[tuple] = []
    num_dispatched = 0
    makespan = 0.0
    now = 0.0
    last_phase: str | None = None
    crashes_observed: set[int] = set()
    if tracer is not None and schedule is not None:
        # Emitting crash events upfront (as the DES engine does via its
        # crash watchers) keeps both engines' streams identical even when
        # a crash falls after the last dispatch.
        crash_events(tracer.emit, schedule.crash_times)

    while True:
        view._now = now
        action = next_dispatch(view)
        if action is None:
            break
        if action is WAIT:
            while future_ends and future_ends[0] <= now:
                heapq.heappop(future_ends)
            if not future_ends:
                raise DeadlockError(
                    f"{scheduler.name}: WAIT with no outstanding chunk at t={now}"
                )
            now = heapq.heappop(future_ends)
            continue
        if not isinstance(action, Dispatch):
            raise TypeError(
                f"{scheduler.name}: next_dispatch returned {action!r}; "
                "expected Dispatch, WAIT or None"
            )
        worker = action.worker
        size = action.size
        phase = action.phase
        if not 0 <= worker < n:
            raise ValueError(
                f"{scheduler.name}: dispatch to worker {worker} "
                f"outside the platform (N={n})"
            )
        spec = workers[worker]

        if tracer is not None:
            last_phase = decision_events(
                tracer.emit, view, num_dispatched, phase, last_phase, crashes_observed
            )

        send_start = now
        path = paths[worker]
        link_time = perturb_comm(path.occupancy_time(size))
        if spikes:
            link_time += schedule.link_extra(rng_fault)
        send_end = send_start + link_time
        if direct[worker]:
            hop_ends = None
            arrival = send_end + spec.tLat
        else:
            hop_ends = [] if tracer is not None else None
            arrival = path.traverse(size, send_end, relay_busy, hop_ends) + spec.tLat

        comp_start = max(arrival, worker_busy_until[worker])
        comp_time = perturb_comp(spec.compute_time(size))
        if stretches:
            comp_time = schedule.compute_duration(worker, comp_start, comp_time)
        comp_end = comp_start + comp_time
        worker_busy_until[worker] = comp_end
        advance()

        seen = (
            None if schedule is None
            else schedule.loss_time(worker, arrival, comp_end)
        )
        lost = seen is not None
        loss_time = seen if lost else -1.0
        if lost:
            # Fictitious timeline values keep the worker's busy chain
            # monotone, so every later chunk sent to a crashed worker is
            # lost too.
            note_dispatch(worker, size, loss_time, num_dispatched, lost=True)
            heapq.heappush(future_ends, loss_time)
            work_lost += size
        else:
            note_dispatch(worker, size, comp_end, num_dispatched)
            heapq.heappush(future_ends, comp_end)
            if comp_end > makespan:
                makespan = comp_end
        if tracer is not None:
            chunk_events(
                tracer.emit, worker, num_dispatched, size, phase, send_start,
                send_end, hop_ends, comp_start, comp_end, seen,
            )
        num_dispatched += 1
        if collect_records:
            rows.append((
                worker, size, send_start, send_end, arrival,
                comp_start, comp_end, phase, lost, loss_time,
            ))
        now = send_end

    return SimResult(
        makespan=makespan,
        rows=tuple(rows),
        platform=platform,
        total_work=total_work,
        scheduler_name=scheduler.name,
        seed=seed,
        work_lost=work_lost,
        topology=str(topo),
    )
