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
third stream (spawned after the first two, which therefore keep their
draws) realizes the run's :class:`~repro.errors.faults.FaultSchedule` and
feeds per-dispatch link-spike draws; chunks whose computation would outlive
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
paper's star is the zero-hop path.  ``sharedbw`` is declined: fluid
bandwidth sharing has no closed-form recurrence, so it lives in the DES
engine only.
"""

from __future__ import annotations

import bisect
import heapq

from repro.core.base import (
    WAIT,
    CompletionNote,
    DeadlockError,
    Dispatch,
    LossNote,
    MasterView,
    Scheduler,
)
from repro.core.chunks import DispatchRecord
from repro.errors.faults import FaultModel, FaultSchedule
from repro.errors.models import ErrorModel
from repro.errors.rng import spawn_rngs
from repro.platform.spec import PlatformSpec
from repro.platform.topology import TopologyError, make_topology
from repro.sim.result import SimResult

__all__ = ["simulate_fast"]


class _FastView(MasterView):
    """Master-observable state backed by the fast engine's arrays."""

    __slots__ = (
        "_now",
        "_n",
        "_sent_count",
        "_sent_work",
        "_ends",
        "_end_work_prefix",
        "_notes_sorted",
        "_notes_pending",
        "_obs_cache",
        "_obs_cache_key",
        "_crash_times",
        "_losses_sorted",
        "_losses_pending",
    )

    def __init__(self, n: int, crash_times: tuple[float, ...] | None = None):
        self._now = 0.0
        self._n = n
        # None when the run is fault-free; faults_possible keys off it so
        # recovery-aware sources skip their fault bookkeeping entirely.
        self._crash_times = crash_times
        self._losses_sorted: list[LossNote] = []
        self._losses_pending: list[LossNote] = []
        self._sent_count = [0] * n
        self._sent_work = [0.0] * n
        # Per-worker realized completion times (nondecreasing: FIFO) and the
        # matching prefix sums of completed work, for O(log) pending queries.
        self._ends: list[list[float]] = [[] for _ in range(n)]
        self._end_work_prefix: list[list[float]] = [[0.0] for _ in range(n)]
        # Global completion notes.  Dispatch appends to the unsorted pending
        # list in O(1); the (time, chunk_index)-sorted list is materialized
        # lazily on the first observed_completions() after a dispatch.  A
        # bisect.insort here would cost O(K) per dispatch — O(K²) over a
        # run — and static schedulers, which never look at completions,
        # would pay it for nothing.
        self._notes_sorted: list[CompletionNote] = []
        self._notes_pending: list[CompletionNote] = []
        self._obs_cache: tuple[CompletionNote, ...] | None = None
        self._obs_cache_key: tuple[float, int] = (-1.0, -1)

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

    def observed_completions(self) -> tuple[CompletionNote, ...]:
        if self._notes_pending:
            # Pending notes arrive nearly sorted (comp_end is monotone per
            # worker), so timsort merges them cheaply; amortized the whole
            # run costs O(K log K) instead of insort's O(K²).
            self._notes_sorted.extend(self._notes_pending)
            self._notes_sorted.sort(key=lambda n: (n.time, n.chunk_index))
            self._notes_pending.clear()
        key = (self._now, len(self._notes_sorted))
        if self._obs_cache is not None and key == self._obs_cache_key:
            return self._obs_cache
        cutoff = bisect.bisect_right(
            self._notes_sorted,
            (self._now, float("inf")),
            key=lambda n: (n.time, n.chunk_index),
        )
        self._obs_cache = tuple(self._notes_sorted[:cutoff])
        self._obs_cache_key = key
        return self._obs_cache

    # -- fault observability -------------------------------------------------
    @property
    def faults_possible(self) -> bool:
        return self._crash_times is not None

    def crashed_workers(self) -> tuple[int, ...]:
        if self._crash_times is None:
            return ()
        now = self._now
        return tuple(i for i in range(self._n) if self._crash_times[i] <= now)

    def observed_losses(self) -> tuple[LossNote, ...]:
        if self._losses_pending:
            self._losses_sorted.extend(self._losses_pending)
            self._losses_sorted.sort(key=lambda n: (n.time, n.chunk_index))
            self._losses_pending.clear()
        cutoff = bisect.bisect_right(
            self._losses_sorted,
            (self._now, float("inf")),
            key=lambda n: (n.time, n.chunk_index),
        )
        return tuple(self._losses_sorted[:cutoff])

    # -- engine-side mutation ------------------------------------------------
    def _note_dispatch(
        self, worker: int, size: float, end: float, index: int, lost: bool = False
    ) -> None:
        # ``end`` is the chunk's exit from the pending set: its completion
        # time, or — for a lost chunk — its loss-observation time.  Either
        # way it joins the per-worker nondecreasing ends list, so pending
        # accounting needs no loss special case.
        self._sent_count[worker] += 1
        self._sent_work[worker] += size
        self._ends[worker].append(end)
        self._end_work_prefix[worker].append(self._end_work_prefix[worker][-1] + size)
        if lost:
            self._losses_pending.append(
                LossNote(time=end, chunk_index=index, worker=worker, size=size)
            )
        else:
            self._notes_pending.append(
                CompletionNote(time=end, chunk_index=index, worker=worker, size=size)
            )


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
    sweep harness: no :class:`DispatchRecord` objects are allocated and the
    returned result carries an empty ``records`` tuple.  The trajectory —
    and therefore the makespan and the random-stream consumption — is
    identical in both modes.

    ``faults`` enables fault injection: a third RNG stream realizes the
    model's :class:`FaultSchedule` before the first dispatch.  Passing
    ``None`` (not merely :class:`~repro.errors.faults.NoFaults`) keeps the
    run on the fault-free code path with two streams.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives the run's event
    stream; ``None`` (the default) skips all emission work.

    ``topology`` (a spec string or :class:`~repro.platform.topology.
    Topology`) picks the interconnect; ``None`` means the paper's star.
    Chains and trees have closed-form relay recurrences handled here;
    ``sharedbw`` raises :class:`TopologyError` (DES only —
    :func:`repro.sim.result.simulate` routes it automatically).
    """
    topo = make_topology(topology)
    if topo.kind == "sharedbw":
        raise TopologyError(
            "shared-bandwidth topologies have no closed-form recurrence; "
            "use the DES engine (simulate(..., engine='des') routes this)"
        )
    bound = topo.bind(platform)
    relay_busy: list[float] = [0.0] * bound.num_relay_links
    schedule: FaultSchedule | None = None
    if faults is not None:
        rng_comm, rng_comp, rng_fault = spawn_rngs(seed, 3)
        schedule = faults.sample(platform, rng_fault)
        if not schedule.any_faults:
            schedule = None
    else:
        rng_comm, rng_comp = spawn_rngs(seed, 2)
    source = scheduler.create_source(topo.effective_platform(platform), total_work)
    workers = platform.workers
    paths = bound.paths
    n = platform.N

    view = _FastView(n, schedule.crash_times if schedule is not None else None)
    worker_busy_until = [0.0] * n
    work_lost = 0.0
    # Min-heap of future completion times, for WAIT wake-ups.
    future_ends: list[float] = []
    records: list[DispatchRecord] = []
    num_dispatched = 0
    makespan = 0.0
    now = 0.0
    last_phase: str | None = None
    crashes_observed: set[int] = set()
    if tracer is not None and schedule is not None:
        # Crash events are known once the schedule is realized; emitting
        # them upfront (as the DES engine does via its crash watchers)
        # keeps both engines' streams identical even when a crash falls
        # after the last dispatch.
        for w, ct in enumerate(schedule.crash_times):
            if ct != float("inf"):
                tracer.emit(ct, "fault", w, detail="crash")

    while True:
        view._now = now
        action = source.next_dispatch(view)
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
        if not 0 <= action.worker < n:
            raise ValueError(
                f"{scheduler.name}: dispatch to worker {action.worker} "
                f"outside the platform (N={n})"
            )
        spec = workers[action.worker]
        size = action.size

        if tracer is not None:
            if action.phase != last_phase:
                tracer.emit(
                    now, "round_boundary", -1, chunk=num_dispatched, phase=action.phase
                )
            if schedule is not None:
                # The master acts on a newly observed crash at its next
                # dispatch decision: one recovery_decision per crashed
                # worker entering the observable set.
                for w in view.crashed_workers():
                    if w not in crashes_observed:
                        crashes_observed.add(w)
                        tracer.emit(
                            now, "recovery_decision", w, detail="crash-observed"
                        )
        last_phase = action.phase

        send_start = now
        path = paths[action.worker]
        link_time = error_model.perturb(path.occupancy_time(size), rng_comm)
        if schedule is not None:
            link_time += schedule.link_extra(rng_fault)
        send_end = send_start + link_time
        hop_ends: list[tuple[int, float]] | None = [] if tracer is not None else None
        arrival = path.traverse(size, send_end, relay_busy, hop_ends) + spec.tLat

        comp_start = max(arrival, worker_busy_until[action.worker])
        comp_time = error_model.perturb(spec.compute_time(size), rng_comp)
        if schedule is not None:
            comp_time = schedule.compute_duration(action.worker, comp_start, comp_time)
        comp_end = comp_start + comp_time
        worker_busy_until[action.worker] = comp_end
        error_model.advance()

        lost = schedule is not None and comp_end > schedule.crash_times[action.worker]
        loss_time = -1.0
        if lost:
            # The master observes the loss when the crash is detected (for
            # chunks already queued) or when delivery fails (in flight):
            # max(crash, arrival).  Fictitious timeline values keep the
            # worker's busy chain monotone, so every later chunk sent to a
            # crashed worker is lost too.
            loss_time = max(schedule.crash_times[action.worker], arrival)
            view._note_dispatch(action.worker, size, loss_time, num_dispatched, lost=True)
            heapq.heappush(future_ends, loss_time)
            work_lost += size
        else:
            view._note_dispatch(action.worker, size, comp_end, num_dispatched)
            heapq.heappush(future_ends, comp_end)
            if comp_end > makespan:
                makespan = comp_end
        if tracer is not None:
            tracer.emit(
                send_start, "dispatch_start", action.worker,
                chunk=num_dispatched, size=size, phase=action.phase,
            )
            tracer.emit(
                send_end, "dispatch_end", action.worker,
                chunk=num_dispatched, size=size, phase=action.phase,
            )
            if hop_ends:
                for res, t_hop in hop_ends:
                    tracer.emit(
                        t_hop, "link_hop", action.worker,
                        chunk=num_dispatched, size=size, phase=action.phase,
                        detail=f"link={res}",
                    )
            if lost:
                tracer.emit(
                    loss_time, "fault", action.worker,
                    chunk=num_dispatched, size=size, phase=action.phase,
                    detail="loss",
                )
            else:
                tracer.emit(
                    comp_start, "comp_start", action.worker,
                    chunk=num_dispatched, size=size, phase=action.phase,
                )
                tracer.emit(
                    comp_end, "comp_end", action.worker,
                    chunk=num_dispatched, size=size, phase=action.phase,
                )
        num_dispatched += 1
        if collect_records:
            records.append(
                DispatchRecord(
                    index=len(records),
                    worker=action.worker,
                    size=size,
                    send_start=send_start,
                    send_end=send_end,
                    arrival=arrival,
                    comp_start=comp_start,
                    comp_end=comp_end,
                    phase=action.phase,
                    lost=lost,
                    loss_time=loss_time,
                )
            )
        now = send_end

    return SimResult(
        makespan=makespan,
        records=tuple(records),
        platform=platform,
        total_work=total_work,
        scheduler_name=scheduler.name,
        seed=seed,
        work_lost=work_lost,
        topology=str(topo),
    )
