"""Reference master-worker simulator on the generic DES kernel.

This engine expresses the paper's platform as a master process and
callback servers on the DES kernel:

* one *master* process that queries the scheduler's dispatch source,
  occupies the serialized link for each transfer, and releases each
  chunk into its delivery stage (which models the overlappable ``tLat``
  pipeline tail);
* one *worker* per processor, a FIFO server (:class:`_Fifo`) that
  computes delivered chunks in arrival order and announces completions
  to the master's completion inbox;
* the scheduler only observes completion announcements, like a real master.

The master and the per-worker crash watches are generators on the
kernel's process driver (:meth:`repro.des.Environment.process`): each
costs a start entry at ``(now, NORMAL)`` and pushes nothing when it
returns.  Everything per chunk is kernel callbacks: the workers and relay links
are FIFO servers (a busy flag and a queue), and a chunk's short-lived
stages -- its send on a ported star, its pipe tail and delivery, an
in-flight loss announcement, its result return -- are chains of
callbacks on the events they wait for.  Each zero-delay step (a stage's
start, a server hand-off, the master's pre-decision flush) is the one
the same code written as processes over ``Store`` inboxes would take,
at the same ``(now, priority)``; it runs inline when nothing on the
calendar can fire before it (:meth:`repro.des.Environment.zero_delay`)
and is pushed otherwise, so every entry that stays on the calendar is
pushed in the same order and every event fires exactly where it would.
The master folds queued completion notes into its view straight from
the store, without a calendar entry per note.

The engine is trajectory-identical to :mod:`repro.sim.fastsim`: the same
floating-point operations in the same order, and error-model draws in
dispatch order from the same two streams.  A zero-delay flush before every
dispatch decision guarantees that completions occurring *exactly* at the
decision time are observed — these ties are systematic under zero error
because UMR aligns round boundaries by construction.

Fault injection preserves that identity.  The master mirrors the fast
engine's busy-until chain (``pred_busy``) so it can price each chunk's
computation window at dispatch time with the exact same float operations;
a chunk whose predicted completion outlives its worker's crash is *lost* —
it occupies the link normally but is never delivered.  Loss announcements
reach the completions inbox at ``max(crash_time, arrival)``: a per-worker
crash-watch process (started at ``t=0``, so its ``timeout(t_crash)`` fires
at the exact crash float) reports chunks already queued on the worker, and
the chunk's own delivery stage, riding the ``tLat`` tail, reports chunks
still in flight.

Every transfer follows its worker's
:class:`~repro.platform.topology.LinkPath`
(:mod:`repro.platform.topology`); the paper's star is the zero-hop path,
whose chunks go straight from link release to the ``tLat`` delivery.
Chains and trees add one *relay* FIFO server per serialized relay link:
it takes chunks in dispatch order (the master link upstream is
serialized), holds the link for the hop time, emits a ``link_hop``
event, and forwards to the next hop or the terminal delivery stage.
The master still predicts the whole timeline at dispatch via the same
:meth:`~repro.platform.topology.LinkPath.traverse` arithmetic the fast
engine uses — relay ``max``/``+`` chains realize the exact same floats,
so chain/tree trajectories stay engine-identical.
Relays are deterministic forwarders: the error model perturbs only the
master-link occupancy, and worker crashes stop computation, not
forwarding (lost chunks still occupy relay links).

``sharedbw`` topologies replace the serialized link with a fluid shared
medium (:class:`_SharedLink`): the master pays only ``nLat`` serially,
registers the transfer (its byte volume perturbed by the comm stream),
and a water-filling allocator splits the capacity max-min fairly among
concurrent transfers, re-solving rates on every join/leave via versioned
watcher callbacks (the kernel has no event cancellation; stale watchers
simply return).  This shape exists only here — the fast engine has no
calendar to realize rate changes on — and rejects fault injection, since
loss classification needs a completion time predictable at dispatch.

Stars with ``ports=K`` or ``out=R`` (``star:ports=K,out=R``) run here
too.  The master link becomes a FIFO pool of ``K`` ports shared by
dispatches and result returns:

* the master takes a port *before* it decides, so the decision sees the
  freshest state at the moment a send could start; ``WAIT`` and the end
  of dispatching hand the port back;
* a dispatch holds its port for the link time in its send stage, and
  the master queues its request for the next port at ``send_start`` —
  ahead of any return that queues during that transfer;
* when a chunk's computation ends, its worker announces the completion,
  then queues a return of ``R·size`` units, which holds a port for
  ``nLat + R·size/B``; the master holds the results ``tLat`` later, and
  the run's makespan is the last result arrival.

Since the master holds a port when it decides, a chunk's link time
starts at the decision instant on a multi-port star too, so the
dispatch-time predictions (and loss classification) stay exact and
faults compose: a lost chunk sends no return, while a chunk whose
computation finished returns its result even if its worker crashes
later (a crash stops computation, not the link).  With both options off
the master takes no ports and the loop is the plain star's.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import functools
import math
import operator

from repro.core.base import (
    WAIT,
    CompletionNote,
    DeadlockError,
    Dispatch,
    LossNote,
    MasterView,
    Scheduler,
)
from repro.core.chunks import (
    ROW_ARRIVAL,
    ROW_COMP_END,
    ROW_COMP_START,
    ROW_LOST,
    ROW_SEND_END,
    ReturnRecord,
)
from repro.des import Environment, Event, Resource, Store
from repro.des.events import NORMAL, URGENT
from repro.errors.faults import CrashClock, FaultModel, sample_run
from repro.errors.models import ErrorModel
from repro.obs.events import decision_events
from repro.platform.spec import PlatformSpec
from repro.platform.topology import LinkPath, RelayHop, bind_once, make_topology
from repro.sim.result import SimResult

__all__ = ["simulate_des"]


@dataclasses.dataclass(slots=True)
class _ChunkMsg:
    """A delivered chunk: its size and the (pre-drawn) compute duration."""

    index: int
    size: float
    comp_time: float
    phase: str


@dataclasses.dataclass(slots=True)
class _RelayMsg:
    """A chunk riding the relay pipeline of a chain/tree topology.

    ``terminal`` decides what happens after the last hop and tail:
    ``"deliver"`` hands ``chunk_msg`` to the worker via the ``tLat``
    delivery, ``"loss"`` announces an in-flight crash loss at the
    would-have-been arrival, ``"drop"`` just occupies the links (the
    chunk was queued at its worker's crash; the crash watch announces
    it).
    """

    worker: int
    index: int
    size: float
    phase: str
    hops: tuple[RelayHop, ...]
    hop_idx: int
    tail_time: float
    t_lat: float
    terminal: str
    chunk_msg: "_ChunkMsg | None"


@dataclasses.dataclass(slots=True)
class _Transfer:
    """One in-flight transfer on a :class:`_SharedLink`."""

    tid: int
    remaining: float
    bcap: float
    done: Event
    rate: float = 0.0


class _Fifo:
    """One server fed by a FIFO queue: a worker's processor or a relay link.

    ``put`` hands an item to the server, or queues it while the server is
    busy.  Serving an item is ``begin(item)``, a hold of ``hold(item)``,
    then ``end(item)``; then the oldest queued item starts.  The hand-offs
    are the zero-delay steps of a process waiting on a ``Store`` inbox:
    ``URGENT`` when the item finds the server idle, ``NORMAL`` for a queued
    item (see :meth:`~repro.des.Environment.zero_delay`), so the server's
    steps fire where that process's would, without a generator.
    """

    __slots__ = ("env", "hold", "begin", "end", "queue", "busy", "item", "held")

    def __init__(self, env: Environment, hold, end, begin=None):
        self.env = env
        self.hold = hold
        self.begin = begin
        self.end = end
        self.queue: collections.deque = collections.deque()
        self.busy = False
        # The item being served (or handed off) and its hold: a server
        # holds one item from its hand-off to the end of its hold.
        self.item = None
        self.held = 0.0

    def put(self, item) -> None:
        if self.busy:
            self.queue.append(item)
        else:
            self.busy = True
            self._hand_off(item, URGENT)

    def _hand_off(self, item, priority: int) -> None:
        env = self.env
        self.item = item
        self.held = hold = self.hold(item)
        now = env.now
        # Inline, a hand-off runs ahead of what its caller still does, which
        # is at most one NORMAL zero-delay step (the master's flush, the
        # upstream link's next hand-off); a hold that ends later cannot
        # overtake that step.  A hold that ends where it starts would put
        # its end at (now, NORMAL) ahead of it, so that hand-off takes its
        # calendar entry, as a Store getter does.
        if now + hold != now:
            env.zero_delay(self._serve, priority)
        else:
            event = env.event()
            event.callbacks.append(self._serve)
            env.schedule(event, 0.0, priority)

    def _serve(self, _) -> None:
        if self.begin is not None:
            self.begin(self.item)
        self.env.timeout(self.held).callbacks.append(self._finish)

    def _finish(self, _) -> None:
        self.end(self.item)
        if self.queue:
            self._hand_off(self.queue.popleft(), NORMAL)
        else:
            self.busy = False


class _SharedLink:
    """A fluid shared medium with max-min fair capacity allocation.

    Active transfers progress at rates solved by water-filling: total
    capacity ``cap`` is split equally, transfers whose own link cap
    ``bcap`` is below their share keep ``bcap``, and the surplus is
    re-split among the rest.  Rates change only when a transfer joins
    (:meth:`register`) or completes; each change advances every
    transfer's remaining volume at the old rates, bumps a version
    counter, and starts a fresh watcher sleeping until the earliest
    completion under the new rates.  A watcher is a chain of kernel
    callbacks (its start entry, then its timeout), not a process.  The
    kernel has no event cancellation, so superseded watchers notice the
    version mismatch when they wake and simply return.

    Everything is plain deterministic float arithmetic on
    deterministically ordered dicts — repeated runs realize identical
    calendars, which is what the DES self-consistency gate certifies.
    """

    __slots__ = ("env", "cap", "active", "last", "version")

    def __init__(self, env: Environment, cap: float):
        self.env = env
        self.cap = cap
        self.active: dict[int, _Transfer] = {}
        self.last = 0.0
        self.version = 0

    def register(self, tid: int, volume: float, bcap: float, done: Event) -> None:
        """Admit a transfer of ``volume`` units capped at rate ``bcap``.

        ``done`` is succeeded (with the completion time) once the whole
        volume has flowed.
        """
        self._advance()
        self.active[tid] = _Transfer(tid=tid, remaining=volume, bcap=bcap, done=done)
        self._reschedule()

    def _advance(self) -> None:
        dt = self.env.now - self.last
        if dt > 0.0:
            for t in self.active.values():
                t.remaining -= t.rate * dt
        self.last = self.env.now

    def _allocate(self) -> None:
        # Water-filling: serve the tightest own-caps first; ties broken by
        # transfer id so the allocation order is deterministic.
        items = sorted(self.active.values(), key=lambda t: (t.bcap, t.tid))
        rem_cap = self.cap
        k = len(items)
        for t in items:
            share = rem_cap / k
            t.rate = t.bcap if t.bcap < share else share
            rem_cap -= t.rate
            k -= 1

    def _reschedule(self) -> None:
        self.version += 1
        if not self.active:
            return
        self._allocate()
        best: float | None = None
        due: list[int] = []
        for t in sorted(self.active.values(), key=lambda t: t.tid):
            dt = (t.remaining if t.remaining > 0.0 else 0.0) / t.rate
            if best is None or dt < best:
                best, due = dt, [t.tid]
            elif dt == best:
                due.append(t.tid)
        assert best is not None
        # A watcher starts with the (now, NORMAL) entry a process start
        # pushes, then sleeps on its timeout.
        env, version, due = self.env, self.version, tuple(due)
        env.timeout(0.0).callbacks.append(
            lambda _: env.timeout(best).callbacks.append(
                lambda _: self._wake(version, due)
            )
        )

    def _wake(self, version: int, due: tuple[int, ...]) -> None:
        if version != self.version:
            return  # a join re-planned the link while we slept
        self._advance()
        for tid in due:
            transfer = self.active.pop(tid)
            transfer.done.succeed(self.env.now)
        self._reschedule()


class _DesView(MasterView):
    """Master-observable state, maintained by explicit message counting.

    Pending work is represented as a per-worker prefix-sum list over the
    dispatch order plus a completed count — the *same arithmetic* as the
    fast engine's view, so both views return bit-identical floats and
    tie-breaks in dynamic schedulers resolve identically (a naive
    incremental add/subtract accumulator leaves ±1-ulp residues that can
    flip least-loaded orderings between engines).
    """

    __slots__ = (
        "env",
        "_n",
        "_sent",
        "_done",
        "_prefix",
        "_all_notes",
        "_note_keys",
        "_notes_cache",
        "_crashes",
        "_all_losses",
        "_loss_keys",
        "_losses_cache",
    )

    def __init__(self, env: Environment, n: int, crash_times: tuple[float, ...] | None = None):
        self.env = env
        self._n = n
        self._sent = [0] * n
        self._done = [0] * n
        self._prefix: list[list[float]] = [[0.0] for _ in range(n)]
        # Sorted by (time, chunk_index): identical to the fast view even
        # when announcements drain in a different internal order.  Each
        # list keeps a parallel list of those keys as plain tuples, so the
        # insertion point is found by C-level tuple comparisons rather
        # than the notes' dataclass ordering (chunk indices are unique, so
        # the two orders agree).  The tuples handed to sources are cached
        # until the next note.
        self._all_notes: list[CompletionNote] = []
        self._note_keys: list[tuple[float, int]] = []
        self._notes_cache: tuple[CompletionNote, ...] | None = ()
        self._crashes = CrashClock(crash_times) if crash_times is not None else None
        self._all_losses: list[LossNote] = []
        self._loss_keys: list[tuple[float, int]] = []
        self._losses_cache: tuple[LossNote, ...] | None = ()

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def num_workers(self) -> int:
        return self._n

    def pending_chunks(self, worker: int) -> int:
        return self._sent[worker] - self._done[worker]

    def pending_work(self, worker: int) -> float:
        prefix = self._prefix[worker]
        return prefix[self._sent[worker]] - prefix[self._done[worker]]

    def is_idle(self, worker: int) -> bool:
        return self._sent[worker] == self._done[worker]

    def first_idle(self, exclude=()) -> int | None:
        for i, (sent, done) in enumerate(zip(self._sent, self._done)):
            if sent == done and i not in exclude:
                return i
        return None

    def any_pending(self) -> bool:
        return self._sent != self._done

    def observed_completions(self) -> tuple[CompletionNote, ...]:
        if self._notes_cache is None:
            self._notes_cache = tuple(self._all_notes)
        return self._notes_cache

    # -- fault observability -------------------------------------------------
    @property
    def faults_possible(self) -> bool:
        return self._crashes is not None

    def crashed_workers(self) -> tuple[int, ...]:
        if self._crashes is None:
            return ()
        return self._crashes.crashed_at(self.env.now)

    def observed_losses(self) -> tuple[LossNote, ...]:
        if self._losses_cache is None:
            self._losses_cache = tuple(self._all_losses)
        return self._losses_cache

    # -- engine-side mutation ----------------------------------------------
    def note_dispatch(self, worker: int, size: float) -> None:
        self._sent[worker] += 1
        self._prefix[worker].append(self._prefix[worker][-1] + size)

    def note_completion(self, worker: int, chunk_index: int, size: float, when: float) -> None:
        self._done[worker] += 1
        _insort(
            self._note_keys, self._all_notes, (when, chunk_index),
            CompletionNote(time=when, chunk_index=chunk_index, worker=worker, size=size),
        )
        self._notes_cache = None

    def note_loss(self, worker: int, chunk_index: int, size: float, when: float) -> None:
        # A loss leaves the pending set exactly like a completion; it is
        # only recorded in the loss list rather than the completion list.
        self._done[worker] += 1
        _insort(
            self._loss_keys, self._all_losses, (when, chunk_index),
            LossNote(time=when, chunk_index=chunk_index, worker=worker, size=size),
        )
        self._losses_cache = None


def _insort(keys: list, notes: list, key: tuple, note: object) -> None:
    """Insert ``note`` into ``notes`` where ``key`` sorts in ``keys``."""
    at = bisect.bisect_right(keys, key)
    keys.insert(at, key)
    notes.insert(at, note)


def simulate_des(
    platform: PlatformSpec,
    total_work: float,
    scheduler: Scheduler,
    error_model: ErrorModel,
    seed: int | None = None,
    faults: FaultModel | None = None,
    tracer=None,
    topology=None,
) -> SimResult:
    """Simulate one run with the DES engine (see module docstring).

    ``faults`` matches :func:`repro.sim.fastsim.simulate_fast`: ``None``
    keeps the fault-free two-stream path; a model realizes one
    :class:`~repro.errors.faults.FaultSchedule`
    (:func:`~repro.errors.faults.sample_run`, with a third stream when
    something draws from it) and injects it.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives the run's typed
    event stream.  Unlike the fast engine — which can emit a chunk's whole
    timeline at dispatch — this engine emits each event from the server,
    stage or process that realizes it (workers, relay links, delivery
    tails, crash watchers), so
    the stream certifies the DES kernel's actual execution; the two engines'
    *canonical* streams are equal exactly when their trajectories are.

    ``topology`` (a spec string or :class:`~repro.platform.topology.
    Topology`) picks the interconnect; ``None`` means the paper's star.
    Chains and trees add relay links, ``sharedbw`` replaces the
    serialized link with a :class:`_SharedLink`, and stars with ports or
    result returns share a pool of master ports (see the module
    docstring).  ``sharedbw`` with ``faults`` raises.
    """
    topo = make_topology(topology)
    bound = bind_once(topo, platform)
    sharedbw = bound.kind == "sharedbw"
    if sharedbw and faults is not None:
        raise ValueError(
            "fault injection is not supported on sharedbw topologies: loss "
            "classification needs a completion time predictable at dispatch"
        )
    rng_comm, rng_comp, schedule, rng_fault = sample_run(faults, platform, seed)
    source = scheduler.create_source(bound.effective_platform, total_work)
    perturb_comm = error_model.perturber(rng_comm)
    perturb_comp = error_model.perturber(rng_comp)
    env = Environment()
    n = platform.N

    completions = Store(env)
    view = _DesView(env, n, schedule.crash_times if schedule is not None else None)
    # A schedule skips the per-chunk rules of the fault kinds it lacks.
    stretches = schedule is not None and (schedule.any_pause or schedule.any_slow)
    spikes = schedule is not None and schedule.spike_prob > 0.0
    # One timeline row per chunk (ROW_FIELDS): the master writes its
    # predictions, the realizing stages overwrite them, and the rows are
    # frozen into the result once, after the run.
    rows: list[list] = []
    # Chunks dispatched but not yet announced complete or lost (deadlock
    # detection and the final drain).
    outstanding = [0]
    work_lost = [0.0]
    # Mirror of the fast engine's busy-until chain: lets the master price a
    # chunk's computation window at dispatch time with the exact floats the
    # worker will realize, which is what decides whether it outlives the
    # worker's crash.
    pred_busy = [0.0] * n
    # Lost chunks queued on a worker at its crash instant, announced by the
    # crash-watch process; after the watch has fired, registrations report
    # themselves directly.
    crash_pending: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    watch_fired = [False] * n
    # Master-side prediction mirror of the relay busy chains (the analogue
    # of pred_busy for links).  Empty on the star.
    relay_busy: list[float] = [0.0] * bound.num_relay_links
    shared_link = _SharedLink(env, bound.cap) if sharedbw else None
    # Star link options: a FIFO pool of master ports shared by dispatches
    # and result returns.  None on every closed-form shape.
    ported = not (sharedbw or topo.closed_form)
    ports = Resource(env, capacity=bound.ports) if ported else None
    out = bound.out
    returns: list[ReturnRecord] = []

    # -- workers and relay links -------------------------------------------
    # Each is a _Fifo: chunks queue in arrival order and are served one at
    # a time.  A worker computes a chunk for its pre-drawn duration; a
    # relay link holds a chunk for its hop time.

    def comp_begin(worker: int, msg: _ChunkMsg) -> None:
        comp_start = env.now
        if tracer is not None:
            tracer.emit(comp_start, "comp_start", worker, msg.index, msg.size, msg.phase)
        rows[msg.index][ROW_COMP_START] = comp_start

    def comp_end(worker: int, msg: _ChunkMsg) -> None:
        comp_end = env.now
        if tracer is not None:
            tracer.emit(comp_end, "comp_end", worker, msg.index, msg.size, msg.phase)
        rows[msg.index][ROW_COMP_END] = comp_end
        completions.put(("done", worker, msg.index, msg.size, comp_end))
        if out:
            send_return(worker, msg, out * msg.size)

    def hop_end(link: int, rmsg: _RelayMsg) -> None:
        # Relay links serve in dispatch order -- the order the master's
        # prediction mirror (LinkPath.traverse over relay_busy) prices
        # them in.
        if tracer is not None:
            tracer.emit(
                env.now, "link_hop", rmsg.worker,
                chunk=rmsg.index, size=rmsg.size, phase=rmsg.phase,
                detail=f"link={link}",
            )
        rmsg.hop_idx += 1
        if rmsg.hop_idx < len(rmsg.hops):
            relays[rmsg.hops[rmsg.hop_idx].resource].put(rmsg)
        else:
            transport_tail(rmsg)

    comp_hold = operator.attrgetter("comp_time")
    workers = [
        _Fifo(env, comp_hold, functools.partial(comp_end, w), functools.partial(comp_begin, w))
        for w in range(n)
    ]
    relays = [
        _Fifo(env, lambda r: r.hops[r.hop_idx].hop_time(r.size), functools.partial(hop_end, link))
        for link in range(bound.num_relay_links)
    ]

    # -- per-chunk stages ----------------------------------------------------
    # Each chunk's short-lived steps (its send on a ported star, its pipe
    # tail and delivery, an in-flight loss, its result return) are kernel
    # callbacks chained on the events they wait for.  A stage starts with
    # the (now, NORMAL) step a process start takes, so every later entry
    # of the stage is pushed at the point of the calendar where the same
    # stage written as a process would push it.  start() runs that step
    # inline when nothing can fire before it (Environment.zero_delay): its
    # callers go on at most to a NORMAL zero-delay step (the master's
    # flush, a relay link's next hand-off), and before its first wait a
    # stage takes no entry at now but URGENT hand-offs.  A ported star's
    # send and return stages push their start entry: a return's port grant
    # (and a send's link timeout, if its delay vanishes) lands at
    # (now, NORMAL), behind the worker's next hand-off and the master's
    # next port request.

    def start(step) -> None:
        env.zero_delay(step)

    def push_start(step) -> None:
        env.timeout(0.0).callbacks.append(step)

    def after(delay: float, step) -> None:
        # step(None) once ``delay`` has passed, inline if the delay does not
        # move the clock.  A positive delay can vanish in ``now + delay``;
        # waiting on such a same-instant timeout would order the event after
        # the master's zero-delay flush, which the fast engine (plain float
        # arithmetic) never does.
        now = env.now
        if now + delay != now:
            env.timeout(delay).callbacks.append(step)
        else:
            step(None)

    def send_return(worker: int, msg: _ChunkMsg, out_size: float) -> None:
        # A computed chunk's results cross back over one master port.
        def transfer(req) -> None:
            link_start = env.now
            if tracer is not None:
                tracer.emit(
                    link_start, "return_start", worker,
                    chunk=msg.index, size=out_size, phase=msg.phase,
                )
            duration = bound.paths[worker].occupancy_time(out_size)
            after(duration, lambda _: finish(req, link_start))

        def finish(req, link_start: float) -> None:
            ports.release(req)
            link_end = env.now
            if tracer is not None:
                tracer.emit(
                    link_end, "return_end", worker,
                    chunk=msg.index, size=out_size, phase=msg.phase,
                )
            returns.append(ReturnRecord(
                msg.index, worker, out_size, link_start, link_end,
                link_end + platform[worker].tLat,
            ))

        push_start(lambda _: ports.request().callbacks.append(transfer))

    def deliver_after(worker: int, msg: _ChunkMsg, t_lat: float) -> None:
        def deliver(_) -> None:
            rows[msg.index][ROW_ARRIVAL] = env.now
            workers[worker].put(msg)

        after(t_lat, deliver)

    def announce_loss(worker: int, index: int, size: float, phase: str, when) -> None:
        # The master learns of a lost chunk at ``when``.
        if tracer is not None:
            tracer.emit(when, "fault", worker, index, size, phase, "loss")
        completions.put(("lost", worker, index, size, when))

    def pass_tail(rmsg: _RelayMsg) -> None:
        # The end of the contention-free pipe tail: the terminal stage.
        if rmsg.terminal == "deliver":
            assert rmsg.chunk_msg is not None
            deliver_after(rmsg.worker, rmsg.chunk_msg, rmsg.t_lat)
        elif rmsg.terminal == "loss":
            # In-flight loss: announced when delivery fails at the
            # (would-have-been) arrival instant, send_end + tLat.
            after(rmsg.t_lat, lambda _: announce_loss(
                rmsg.worker, rmsg.index, rmsg.size, rmsg.phase, env.now
            ))
        # "drop": queued-at-crash ghost — it only existed to occupy links;
        # the crash watch owns its announcement.

    def transport_tail(rmsg: _RelayMsg) -> None:
        # Entered at the end of the last hop, or straight after link
        # release for hop-free paths such as cut-through chains and tree
        # roots.
        start(lambda _: after(rmsg.tail_time, lambda _: pass_tail(rmsg)))

    def shared_tail(
        worker: int, index: int, size: float, comp_time: float, phase: str,
        t_lat: float, done: Event,
    ) -> None:
        # Rides one sharedbw transfer end to end: waits for the fluid
        # allocator to drain the volume, realizes send_end, then the
        # ordinary tLat delivery.
        def realize(_) -> None:
            send_end = env.now
            if tracer is not None:
                tracer.emit(
                    send_end, "dispatch_end", worker, chunk=index, size=size, phase=phase
                )
            rows[index][ROW_SEND_END] = send_end
            msg = _ChunkMsg(index=index, size=size, comp_time=comp_time, phase=phase)
            deliver_after(worker, msg, t_lat)

        start(lambda _: done.callbacks.append(realize))

    def land(
        path: LinkPath, worker: int, index: int, size: float, phase: str,
        t_lat: float, terminal: str, chunk_msg: "_ChunkMsg | None",
    ) -> None:
        # Link release: the dispatch ends and the chunk enters its path —
        # the first relay link, or straight to the tail for hop-free
        # paths (the star, cut-through chains, tree roots).  ``terminal``
        # is empty for a queued-at-crash loss on a hop-free path, which
        # the crash watch announces and nothing carries.
        send_end = env.now
        if tracer is not None:
            tracer.emit(send_end, "dispatch_end", worker, chunk=index, size=size, phase=phase)
        if chunk_msg is not None:
            rows[index][ROW_SEND_END] = send_end
        if not terminal:
            return
        rmsg = _RelayMsg(
            worker=worker, index=index, size=size, phase=phase,
            hops=path.hops, hop_idx=0,
            tail_time=path.tail_time(size) if path.has_tail else 0.0, t_lat=t_lat,
            terminal=terminal, chunk_msg=chunk_msg,
        )
        if rmsg.hops:
            relays[rmsg.hops[0].resource].put(rmsg)
        else:
            transport_tail(rmsg)

    def send(req, link_time: float, landing: tuple) -> None:
        # A dispatch on a ported star holds its port in its own stage, so
        # the master queues for the next port at send_start.
        def release(_) -> None:
            ports.release(req)
            land(*landing)

        push_start(lambda _: env.timeout(link_time).callbacks.append(release))

    def crash_watch_proc(worker: int, t_crash: float):
        # Started at t=0 so ``timeout(t_crash)`` lands on the exact crash
        # float; its early insertion sequence also makes it run before any
        # master activity at the same timestamp.
        yield env.timeout(t_crash)
        if tracer is not None:
            tracer.emit(t_crash, "fault", worker, detail="crash")
        watch_fired[worker] = True
        for idx, size, phase in crash_pending[worker]:
            announce_loss(worker, idx, size, phase, t_crash)
        crash_pending[worker].clear()

    def apply_note(kind: str, worker: int, idx: int, size: float, when: float) -> None:
        if kind == "done":
            view.note_completion(worker, idx, size, when)
        else:
            view.note_loss(worker, idx, size, when)
        outstanding[0] -= 1

    # The master folds queued announcements in without a Store.get() per
    # note: each would push a calendar entry that fires with no callbacks.
    pending_notes = completions._items

    def drain_completions() -> None:
        while pending_notes:
            apply_note(*pending_notes.popleft())

    def master_proc():
        last_phase: str | None = None
        crashes_observed: set[int] = set()
        while True:
            if ported:
                req = ports.request()
                yield req
            # Flush same-time events so completions at exactly `now` are
            # visible, then fold announcements into the view.  With nothing
            # left at `now` the flush is a no-op and the master goes on.
            flush = env.zero_delay(None)
            if flush is not None:
                yield flush
            drain_completions()
            action = source.next_dispatch(view)
            if action is None:
                if ported:
                    ports.release(req)
                break
            if action is WAIT:
                if ported:
                    ports.release(req)
                if outstanding[0] <= 0:
                    raise DeadlockError(
                        f"{scheduler.name}: WAIT with no outstanding chunk at t={env.now}"
                    )
                msg = yield completions.get()
                apply_note(*msg)
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
            spec = platform[action.worker]
            size = action.size
            if tracer is not None:
                # The decision starts the dispatch at once: send_start is now.
                last_phase = decision_events(
                    tracer.emit, view, len(rows), action.phase, last_phase,
                    crashes_observed,
                )
                tracer.emit(
                    env.now, "dispatch_start", action.worker,
                    chunk=len(rows), size=size, phase=action.phase,
                )
            if sharedbw:
                # The shared medium has no exclusive occupancy: the master
                # pays nLat serially, registers the transfer (its volume
                # perturbed by the comm stream — one draw per dispatch,
                # preserving the stream discipline), and moves on; the
                # fluid allocator realizes send_end.  Timeline fields are
                # placeholders until the realizing stages fill them.
                assert shared_link is not None
                volume = perturb_comm(size)
                comp_time = perturb_comp(spec.compute_time(size))
                error_model.advance()
                index = len(rows)
                send_start = env.now
                rows.append([
                    action.worker, size, send_start, send_start, send_start,
                    send_start, send_start, action.phase, False, -1.0,
                ])
                view.note_dispatch(action.worker, size)
                outstanding[0] += 1
                if spec.nLat > 0:
                    yield env.timeout(spec.nLat)
                done = Event(env)
                shared_link.register(index, volume, spec.B, done)
                shared_tail(
                    action.worker, index, size, comp_time, action.phase, spec.tLat, done
                )
                continue
            path = bound.paths[action.worker]
            link_time = perturb_comm(path.occupancy_time(size))
            if spikes:
                link_time += schedule.link_extra(rng_fault)
            comp_time = perturb_comp(spec.compute_time(size))
            error_model.advance()
            index = len(rows)
            send_start = env.now
            # Predicted chunk timeline — bit-identical to what the kernel
            # will realize, because env.timeout chains absolute times with
            # the same `a + b` float operations (relay hops included: the
            # relay links realize traverse()'s max/+ chains exactly).
            send_end_pred = send_start + link_time
            arrival_pred = path.traverse(size, send_end_pred, relay_busy) + spec.tLat
            comp_start_pred = max(arrival_pred, pred_busy[action.worker])
            if stretches:
                comp_time = schedule.compute_duration(
                    action.worker, comp_start_pred, comp_time
                )
            comp_end_pred = comp_start_pred + comp_time
            pred_busy[action.worker] = comp_end_pred
            seen = (
                None if schedule is None
                else schedule.loss_time(action.worker, arrival_pred, comp_end_pred)
            )
            lost = seen is not None
            loss_time = seen if lost else -1.0
            rows.append([
                action.worker, size, send_start, send_end_pred, arrival_pred,
                comp_start_pred, comp_end_pred, action.phase, lost, loss_time,
            ])
            view.note_dispatch(action.worker, size)
            outstanding[0] += 1
            msg = None
            if lost:
                work_lost[0] += size
                t_crash = schedule.crash_times[action.worker]
                if arrival_pred > t_crash:
                    # Still in flight at the crash: announced at arrival.
                    terminal = "loss"
                else:
                    # Queued on the worker at the crash: announced by the
                    # crash watch at the crash instant itself (or now, in
                    # the degenerate same-timestamp case where the watch
                    # already fired).
                    if watch_fired[action.worker]:
                        announce_loss(action.worker, index, size, action.phase, t_crash)
                    else:
                        crash_pending[action.worker].append((index, size, action.phase))
                    # Ghost ride: the chunk was priced through the relay
                    # busy chains, so it must still occupy them.
                    terminal = "drop" if path.hops else ""
            else:
                terminal = "deliver"
                msg = _ChunkMsg(index=index, size=size, comp_time=comp_time, phase=action.phase)
            if ported:
                send(req, link_time, (
                    path, action.worker, index, size, action.phase, spec.tLat,
                    terminal, msg,
                ))
                continue
            yield env.timeout(link_time)
            land(path, action.worker, index, size, action.phase, spec.tLat, terminal, msg)
        # All work dispatched.  Deliveries may still be riding their paths
        # and tLat tails; every chunk eventually announces done or lost, so
        # drain the outstanding count.
        while outstanding[0] > 0:
            msg = yield completions.get()
            apply_note(*msg)

    if schedule is not None:
        for w, t_crash in enumerate(schedule.crash_times):
            if t_crash != math.inf:
                env.process(crash_watch_proc(w, t_crash))
    env.process(master_proc())
    env.run()

    makespan = max((row[ROW_COMP_END] for row in rows if not row[ROW_LOST]), default=0.0)
    if returns:
        makespan = max(makespan, max(ret.received for ret in returns))
    return SimResult(
        makespan=makespan,
        rows=tuple(map(tuple, rows)),
        platform=platform,
        total_work=total_work,
        scheduler_name=scheduler.name,
        seed=seed,
        work_lost=work_lost[0],
        topology=str(topo),
        returns=tuple(returns),
    )
