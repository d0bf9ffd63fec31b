"""The simulation event schema and canonical stream derivations.

A :class:`SimEvent` is one observable instant of a simulated run.  The
seven simulation kinds mirror what the paper's multi-round schedules make
one reason about: link occupancy (``dispatch_start``/``dispatch_end``),
per-worker computation (``comp_start``/``comp_end``), worker faults and
chunk losses (``fault``), the scheduler reacting to an observed crash
(``recovery_decision``), and phase/round transitions (``round_boundary``).
Two further *harness-level* kinds are emitted by the resilient sweep
supervisor (:mod:`repro.experiments.resilient`) rather than by an engine:
``engine_fallback`` (a failing cell was rerouted down the engine ladder)
and ``cell_quarantined`` (a cell exhausted the ladder and became NaN).
They carry ``time=0.0`` and ``worker=-1`` — they describe the harness,
not simulated time.

One *topology-level* kind, ``link_hop``, marks a chunk clearing one
serialized relay link on a non-star topology (chains and trees; see
:mod:`repro.platform.topology`).  It is chunk-scoped like the dispatch
pair, with ``detail="link=<resource>"`` naming the relay resource; it is
emitted only by live tracers (relay traversal is not reconstructible
from :class:`~repro.core.chunks.DispatchRecord` alone).  On stars with
result returns (``star:out=R``) the pair ``return_start``/``return_end``
brackets a computed chunk's results holding a master port: chunk-scoped,
on the returning worker, with ``size`` the returned volume
(``R · size``) and the chunk's phase label.

Six *stream-level* kinds describe multi-job streams
(:mod:`repro.sim.multijob`): ``job_arrival``, ``job_start`` and
``job_done`` mark one job entering the system, receiving its first
service grant, and completing.  They carry ``worker=-1``,
``chunk=job_id``, ``size`` equal to the job's workload and ``phase``
naming the inter-job policy; their times live on the stream's absolute
timeline.  Three further kinds describe the stream-level fault plane:
``worker_excluded`` (the health tracker observed a worker's permanent
crash — ``worker`` is the *global* index, ``detail="crash"``; the
worker receives no further admissions), ``job_failed`` (a job's
failure policy gave up — ``detail`` names the reason:
``"no-live-workers"``, ``"delivery-shortfall"`` or
``"attempts-exhausted"``) and ``job_resubmitted`` (a failed service
grant was re-attempted on the surviving workers,
``detail="attempt=<k>"``).

Engines emit events in *engine order* (the fast engine in dispatch order,
the DES engine in simulation-time order).  Cross-engine comparisons and
golden files therefore use :func:`canonical_order`, a total order on
events that is identical for both engines because the underlying floats
are — the differential harness's oracle is the canonically sorted stream.

Which events a chunk, a master decision or a realized crash plan
becomes is written once: :func:`chunk_events`, :func:`decision_events`
(with its phase half :func:`phase_event`) and :func:`crash_events`.  The
fast engine, the static and lockstep passes' traced rows and
:func:`events_from_result` lower through them.  The DES master shares
:func:`decision_events`; the DES emits each chunk event from the stage
that realizes it, so its stream certifies the kernel's execution.

:func:`events_from_result` derives the *record-implied* substream (all
kinds except worker-crash ``fault`` events and ``recovery_decision``,
which are not reconstructible from :class:`~repro.core.chunks.
DispatchRecord` and :class:`~repro.core.chunks.ReturnRecord` alone) from
a finished result, making every ``SimResult`` a trace source even when
no tracer was attached.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing

__all__ = [
    "EVENT_KINDS",
    "SimEvent",
    "canonical_order",
    "chunk_events",
    "crash_events",
    "decision_events",
    "events_from_result",
    "events_to_jsonl",
    "phase_event",
]

#: The closed set of event kinds (see module docstring).
EVENT_KINDS = frozenset(
    {
        "dispatch_start",
        "dispatch_end",
        "link_hop",
        "comp_start",
        "comp_end",
        "fault",
        "recovery_decision",
        "round_boundary",
        "return_start",
        "return_end",
        "engine_fallback",
        "cell_quarantined",
        "job_arrival",
        "job_start",
        "job_done",
        "worker_excluded",
        "job_failed",
        "job_resubmitted",
    }
)

#: Tie-break rank for events sharing a timestamp: completions and fault
#: observations are ordered before the decisions and dispatches they
#: enable, matching how the master observes then acts at one instant.
#: Job-level stream events follow the same observe-then-act shape:
#: ``job_done`` (a completion) sorts before ``job_arrival`` and
#: ``job_start`` (the admissions it may enable) at one timestamp.
#: The stream-fault kinds slot into the same shape: ``worker_excluded``
#: is an observation (right after ``job_done``, before the admissions it
#: constrains), ``job_failed``/``job_resubmitted`` are admission
#: outcomes (after ``job_arrival``, before ``job_start``).  Rank values
#: are internal — only the *relative* order is contractual, so the old
#: kinds keep their relative ranks and golden traces stand.
_KIND_RANK = {
    "comp_end": 0,
    "fault": 1,
    "recovery_decision": 2,
    "job_done": 3,
    "worker_excluded": 4,
    "job_arrival": 5,
    "job_failed": 6,
    "job_resubmitted": 7,
    "job_start": 8,
    "round_boundary": 9,
    "dispatch_start": 10,
    "dispatch_end": 11,
    "link_hop": 12,
    "comp_start": 13,
    "return_start": 14,
    "return_end": 15,
    "engine_fallback": 16,
    "cell_quarantined": 17,
}


@dataclasses.dataclass(frozen=True, slots=True)
class SimEvent:
    """One observable instant of a simulated run.

    Attributes
    ----------
    time:
        Simulation time of the event.
    kind:
        One of :data:`EVENT_KINDS`.
    worker:
        Worker index the event concerns (-1 for worker-agnostic events
        such as ``round_boundary``).
    chunk:
        Dispatch sequence number of the chunk involved (-1 when the event
        is not chunk-scoped, e.g. a worker-crash ``fault``).
    size:
        Chunk size in workload units (0.0 when not chunk-scoped).
    phase:
        Scheduler phase label of the involved dispatch ("" when unknown).
    detail:
        Free-form qualifier; ``fault`` events use ``"crash"`` (the worker
        died) and ``"loss"`` (the master observed a chunk lost to a
        crash), ``recovery_decision`` uses ``"crash-observed"``.
    """

    time: float
    kind: str
    worker: int
    chunk: int = -1
    size: float = 0.0
    phase: str = ""
    detail: str = ""

    def sort_key(self) -> tuple:
        """Key of the canonical total order (see :func:`canonical_order`)."""
        return (
            self.time,
            _KIND_RANK.get(self.kind, len(_KIND_RANK)),
            self.worker,
            self.chunk,
            self.detail,
        )


def canonical_order(events: typing.Iterable[SimEvent]) -> tuple[SimEvent, ...]:
    """Sort an event stream into the canonical cross-engine order.

    Two engines that realized the same trajectory produce the same
    canonical stream regardless of their internal emission order; the
    differential harness compares exactly this.
    """
    return tuple(sorted(events, key=SimEvent.sort_key))


def chunk_events(
    emit, worker, chunk, size, phase, send_start, send_end, hops,
    comp_start, comp_end, loss_time=None,
) -> None:
    """Lower one chunk's timeline through ``emit`` (:meth:`repro.obs.Tracer.emit`).

    The dispatch pair, one ``link_hop`` per ``(resource, time)`` of
    ``hops`` (``None`` on a hop-free path), then the compute pair — or,
    when ``loss_time`` is not ``None``, the ``fault``/``loss`` event at
    the master's loss-observation time instead of fictitious compute
    events.
    """
    emit(send_start, "dispatch_start", worker, chunk, size, phase)
    emit(send_end, "dispatch_end", worker, chunk, size, phase)
    for resource, t_hop in hops or ():
        emit(t_hop, "link_hop", worker, chunk, size, phase, f"link={resource}")
    if loss_time is None:
        emit(comp_start, "comp_start", worker, chunk, size, phase)
        emit(comp_end, "comp_end", worker, chunk, size, phase)
    else:
        emit(loss_time, "fault", worker, chunk, size, phase, "loss")


def phase_event(emit, time, chunk, phase, last_phase):
    """Emit ``round_boundary`` on a phase change; returns the next ``last_phase``."""
    if phase != last_phase:
        emit(time, "round_boundary", -1, chunk, 0.0, phase)
    return phase


def decision_events(emit, view, chunk, phase, last_phase, observed):
    """Emit the master's events as it decides to dispatch ``chunk``.

    :func:`phase_event`, then one ``recovery_decision`` per worker that
    ``view`` (the engine's :class:`~repro.core.base.MasterView`) shows
    crashed and the set ``observed`` lacks; it joins the set.  Returns
    the next ``last_phase``.
    """
    phase_event(emit, view.now, chunk, phase, last_phase)
    for w in view.crashed_workers():
        if w not in observed:
            observed.add(w)
            emit(view.now, "recovery_decision", w, detail="crash-observed")
    return phase


def crash_events(emit, crash_times) -> None:
    """Emit a ``fault``/``crash`` event per finite crash time, in worker order."""
    for w, t_crash in enumerate(crash_times):
        if t_crash != math.inf:
            emit(t_crash, "fault", w, detail="crash")


def events_from_result(result) -> tuple[SimEvent, ...]:
    """Derive the record-implied canonical event stream of a result.

    ``result`` is a :class:`~repro.sim.result.SimResult` (typed loosely to
    avoid an import cycle: anything with ``records`` works).  Records are
    lowered by :func:`phase_event` and :func:`chunk_events` (relay hops
    are not recorded); result returns (``result.returns``, if any) yield
    ``return_start``/``return_end`` at their port occupation.
    Worker-crash ``fault`` and ``recovery_decision`` events are *not*
    derivable from records — a live :class:`~repro.obs.tracer.Tracer`
    stream is a strict superset of this one.
    """
    events: list[SimEvent] = []

    def emit(*fields, **named) -> None:
        events.append(SimEvent(*fields, **named))

    last_phase: str | None = None
    for r in result.records:
        last_phase = phase_event(emit, r.send_start, r.index, r.phase, last_phase)
        chunk_events(
            emit, r.worker, r.index, r.size, r.phase, r.send_start, r.send_end,
            None, r.comp_start, r.comp_end, r.loss_time if r.lost else None,
        )
    for ret in getattr(result, "returns", ()):
        phase = result.records[ret.chunk_index].phase
        emit(ret.link_start, "return_start", ret.worker, ret.chunk_index,
             ret.output_size, phase)
        emit(ret.link_end, "return_end", ret.worker, ret.chunk_index,
             ret.output_size, phase)
    return canonical_order(events)


def events_to_jsonl(events: typing.Iterable[SimEvent]) -> str:
    """Serialize events as one JSON object per line (byte-deterministic).

    Keys are sorted and floats use Python's shortest-roundtrip repr, so
    the same event stream always serializes to the same bytes — the
    golden-trace regression tests pin these files.
    """
    lines = [
        json.dumps(dataclasses.asdict(e), sort_keys=True, separators=(",", ":"))
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
