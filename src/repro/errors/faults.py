"""Worker fault models: crashes, pauses, slowdowns and link spikes.

The prediction-error models in :mod:`repro.errors.models` cover one half of
robustness on real star platforms — durations that differ from their
predictions.  This module covers the other half: *workers that misbehave*.
Four fault kinds are modelled, mirroring the failure taxonomy of the
resource-sharing DLT literature:

* **permanent crash** — a worker dies at time ``t``; every chunk that has
  not finished computing by then (queued, in flight on the link, or mid
  computation) is lost and must be re-dispatched by a recovery-aware
  scheduler;
* **transient pause** — a worker computes nothing during a window
  ``[start, start + duration)`` and then resumes where it left off;
* **sustained slowdown** — from ``start`` onward a worker's computations
  take ``factor×`` as long;
* **link latency spike** — an individual transfer occupies the master's
  serialized link for ``delay`` extra seconds, with probability ``prob``
  per dispatch.

A :class:`FaultModel` is *configuration only* (like a
:class:`~repro.core.base.Scheduler`): calling :meth:`FaultModel.sample`
with a platform and an RNG realizes one run's :class:`FaultSchedule`.  Both
simulation engines take the fault stream from the **third** child of the run
seed — after the communication and computation error streams, whose draws
are unchanged — sample the schedule once at run start, and then draw the
per-dispatch spike stream in dispatch order (:func:`sample_run`, which
derives the stream only when something draws from it).  The engines
therefore stay trajectory-identical under faults (see ``docs/faults.md``
for the exact semantics contract and ``tests/sim/test_differential.py``
for the enforcement).

Each fault rule is one function over an op namespace
(:data:`~repro.core.lockstep.SCALAR_OPS` on floats, ``ARRAY_OPS`` on
rows): sampling and batch sampling share :func:`onset_walk` and each
kind's placement, and :class:`FaultSchedule` (scalar engines) and
:class:`FaultStack` (batch engines) share the transforms.

Fault scenarios are named by compact spec strings so they can ride through
the experiment grid, the sweep cache key and the CLI unchanged::

    none
    crash:p=0.2,tmax=400        # each worker crashes w.p. 0.2 at U(0, 400)
    crash:worker=0,at=25        # deterministic: worker 0 dies at t=25
    pause:p=0.5,tmax=200,dur=60
    slow:p=0.5,tmax=200,factor=2.5
    spike:p=0.1,delay=5
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import dataclasses
import functools
import math
import operator
import typing
from time import perf_counter

import numpy as np

from repro.core.lockstep import ARRAY_OPS, SCALAR_OPS
from repro.errors.rng import StateTable, spawn_rngs
from repro.errors.rng import streams as rng_streams
from repro.kvspec import parse_kv, take

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.spec import PlatformSpec

__all__ = [
    "NO_FAULT_SPEC",
    "PLANE_FIELDS",
    "CrashClock",
    "FaultPlane",
    "FaultPlaneCache",
    "FaultSchedule",
    "FaultStack",
    "FaultModel",
    "FrozenFaults",
    "NoFaults",
    "CrashFaults",
    "PauseFaults",
    "SlowdownFaults",
    "LinkSpikeFaults",
    "StreamFaultSchedule",
    "fault_stream",
    "fault_streams",
    "is_lost",
    "loss_rule",
    "make_fault_model",
    "onset_walk",
    "pause_stretch",
    "sample_run",
    "slow_stretch",
    "spike_rule",
]

#: The spec string meaning "no fault injection" (the grid default).
NO_FAULT_SPEC = "none"

_NEVER = math.inf


# -- the fault rules, each written once for floats and rows -------------------
def onset_walk(ops, draws, n: int, prob: float, tmax: float):
    """Per-worker ``(hits, onsets)`` columns read from ``2n`` stream uniforms.

    Workers 0..n-1 in order: a hit test, then an onset draw *only* after a
    hit.  ``draws`` is a list (``SCALAR_OPS``) or one row per run
    (``ARRAY_OPS``); ``Generator.random(k)`` equals ``k`` scalar draws.
    ``tmax * u`` is bitwise ``Generator.uniform(0, tmax)``; an onset
    means nothing where its hit is false.
    """
    hits, onsets = [], []
    pos = 0
    for _ in range(n):
        hit = ops.gather(draws, pos) < prob
        # pos stays at most 2j here, so pos + 1 <= 2n - 1 never overruns.
        onsets.append(tmax * ops.gather(draws, pos + 1))
        hits.append(hit)
        pos += 1
        pos += hit
    return hits, onsets


def pause_stretch(ops, start, dur, pause_start, pause_len):
    """A computation's duration with its worker's pause window folded in.

    Work started inside ``[pause_start, pause_start + pause_len)`` shifts
    past the window's end; work that starts before it and would end
    inside or after it is delayed by the window's length.
    """
    end = pause_start + pause_len
    held = (pause_len > 0.0) & (start < end)
    return ops.where(
        held & (start >= pause_start),
        (end + dur) - start,
        ops.where(held & (start + dur > pause_start), dur + pause_len, dur),
    )


def slow_stretch(ops, start, dur, slow_start, factor):
    """A computation's duration with its worker's slowdown onset folded in.

    Once ``slow_start`` has passed, the remaining work takes ``factor``
    times as long.
    """
    done = slow_start - start
    return ops.where(
        (factor > 1.0) & (start + dur > slow_start),
        ops.where(start >= slow_start, dur * factor, done + (dur - done) * factor),
        dur,
    )


def is_lost(crash, end):
    """The loss rule: a computation ending after its worker's crash is lost."""
    return end > crash


def loss_rule(ops, crash, arrival, end):
    """``(lost, when)``: :func:`is_lost`, and when the master sees the chunk go.

    A lost chunk leaves the pending set at ``max(crash, arrival)``: at
    the crash if it was already queued, at its would-be arrival if it was
    still in flight.  A delivered one leaves it at ``end``.
    """
    lost = is_lost(crash, end)
    return lost, ops.where(lost, ops.max(crash, arrival), end)


def spike_rule(ops, u, prob, delay):
    """Extra link occupancy of a dispatch whose spike draw is ``u``."""
    return ops.where(u < prob, delay, 0.0)


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """One run's realized faults, pre-sampled before the first dispatch.

    Both scalar engines consume the schedule through three hooks, each a
    call of the module's fault rules on one worker's floats
    (:class:`FaultStack` calls the same rules on rows):

    * :meth:`loss_time` over :attr:`crash_times` — per-worker absolute
      crash instants (``math.inf`` = never); :func:`loss_rule`.
    * :meth:`compute_duration` — maps a computation's start time and
      nominal duration to its effective duration, folding in the worker's
      pause window and slowdown onset (:func:`pause_stretch`, then
      :func:`slow_stretch`).  An engine may skip it when neither
      :attr:`any_pause` nor :attr:`any_slow` is set.
    * :meth:`link_extra` — the per-dispatch latency-spike draw
      (:func:`spike_rule`), consumed from the fault stream in dispatch
      order (one draw per dispatch whenever ``spike_prob > 0``, spike or
      not, so the stream position never depends on outcomes).
    """

    crash_times: tuple[float, ...]
    #: Per-worker ``(start, duration)``; ``duration <= 0`` means no pause.
    pauses: tuple[tuple[float, float], ...]
    #: Per-worker ``(start, factor)``; ``factor <= 1`` means no slowdown.
    slowdowns: tuple[tuple[float, float], ...]
    spike_prob: float = 0.0
    spike_delay: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.crash_times)
        if len(self.pauses) != n or len(self.slowdowns) != n:
            raise ValueError("fault schedule arrays must have equal length")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0, 1], got {self.spike_prob}")

    @property
    def num_workers(self) -> int:
        return len(self.crash_times)

    @functools.cached_property
    def any_pause(self) -> bool:
        """Whether some worker has a pause window of positive length."""
        return any(d > 0.0 for _, d in self.pauses)

    @functools.cached_property
    def any_slow(self) -> bool:
        """Whether some worker has a slowdown factor above 1."""
        return any(f > 1.0 for _, f in self.slowdowns)

    @property
    def any_faults(self) -> bool:
        """Whether the schedule can perturb this run at all."""
        return (
            any(t != _NEVER for t in self.crash_times)
            or self.any_pause
            or self.any_slow
            or self.spike_prob > 0.0
        )

    def compute_duration(self, worker: int, start: float, duration: float) -> float:
        """Effective duration of a computation starting at ``start``.

        Work progresses at the worker's nominal rate outside its pause
        window, at rate zero inside it, and — once the slowdown onset has
        passed — takes ``factor×`` as long per unit of remaining work.
        Engines must compute ``comp_end = comp_start + compute_duration(…)``
        with this exact value so the DES timeout chain reproduces the fast
        engine's floats bit-for-bit.
        """
        # Each rule returns ``duration`` unchanged on a worker without its
        # fault, so such a worker skips it.
        pause_start, pause_len = self.pauses[worker]
        if pause_len > 0.0:
            duration = pause_stretch(SCALAR_OPS, start, duration, pause_start, pause_len)
        slow_start, factor = self.slowdowns[worker]
        if factor > 1.0:
            duration = slow_stretch(SCALAR_OPS, start, duration, slow_start, factor)
        return duration

    def link_extra(self, rng: np.random.Generator) -> float:
        """Extra link occupancy for the next dispatch (spike model)."""
        if self.spike_prob <= 0.0:
            return 0.0
        return spike_rule(SCALAR_OPS, rng.random(), self.spike_prob, self.spike_delay)

    def loss_time(self, worker: int, arrival: float, end: float) -> "float | None":
        """When the master observes a chunk's loss (:func:`loss_rule`).

        ``None`` if the chunk is delivered.
        """
        crash = self.crash_times[worker]
        if not is_lost(crash, end):
            return None
        return loss_rule(SCALAR_OPS, crash, arrival, end)[1]


class CrashClock:
    """The workers whose crash instant has passed, queried by time.

    The engines' views ask at every decision which workers have crashed
    by ``now``.  Crash instants are sorted once, so a query is one bisect;
    the ascending worker tuple is rebuilt only when the crashed count
    changes, and the same tuple object is returned otherwise.
    """

    __slots__ = ("_times", "_order", "_crashed")

    def __init__(self, crash_times: "typing.Sequence[float]"):
        self._order = sorted(range(len(crash_times)), key=crash_times.__getitem__)
        self._times = [crash_times[w] for w in self._order]
        self._crashed: tuple[int, ...] = ()

    def crashed_at(self, now: float) -> tuple[int, ...]:
        """Workers with ``crash_time <= now``, ascending."""
        count = bisect.bisect_right(self._times, now)
        if count != len(self._crashed):
            self._crashed = tuple(sorted(self._order[:count]))
        return self._crashed


@functools.lru_cache(maxsize=64)
def _clear_schedule(n: int) -> FaultSchedule:
    """The all-neutral schedule on ``n`` workers (shared: schedules are frozen)."""
    return FaultPlane.clear(1, n).schedule(0)


def fault_stream(seed: int) -> np.random.Generator:
    """The fault RNG stream for one run seed.

    ``SeedSequence(seed, spawn_key=(2,))`` is the *third spawned child* of
    the run seed — bit-identical to ``SeedSequence(seed).spawn(3)[2]``
    (``spawn`` simply appends the child index to ``spawn_key``) — without
    materializing the two error-stream children the engines draw
    elsewhere.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(2,)))
    )


def fault_streams(seeds) -> list[np.random.Generator]:
    """``[fault_stream(s) for s in seeds]``, derived in one batched pass.

    The seed hash of every stream runs as one array pass
    (:func:`repro.errors.rng.streams`), so realizing a plane costs one
    hash pass instead of one ``SeedSequence`` per repetition.
    """
    return rng_streams([int(s) for s in seeds], (2,))


def _fault_child(seed: "int | np.random.SeedSequence") -> np.random.Generator:
    """Child 2 of a run seed, derived after its two error-stream children."""
    if isinstance(seed, np.random.SeedSequence):
        # spawn() continues the child counter past the error streams.
        return spawn_rngs(seed, 1)[0]
    return fault_stream(seed)


def sample_run(
    model: FaultModel | None,
    platform: PlatformSpec,
    seed: int | np.random.SeedSequence | None,
) -> tuple[
    np.random.Generator,
    np.random.Generator,
    FaultSchedule | None,
    np.random.Generator | None,
]:
    """One run's random streams and realized fault schedule.

    Returns ``(rng_comm, rng_comp, schedule, rng_fault)``: children 0 and
    1 of ``seed`` (:func:`~repro.errors.rng.spawn_rngs`), the schedule
    ``model`` realizes (``None`` without a model, or when the schedule
    perturbs nothing), and the fault stream its spike draws read.  The
    fault stream, child 2, is derived only when something draws from it:
    a model whose :meth:`FaultModel.sample` draws
    (:attr:`FaultModel.draws_on_sample`), or a schedule with spikes.  It
    is ``None`` otherwise.  Deriving it after sampling changes no draw,
    because a model that draws nothing leaves the stream fresh.  (A
    ``SeedSequence`` seed advances its child counter only by the children
    derived.)
    """
    if model is None:
        rng_comm, rng_comp = spawn_rngs(seed, 2)
        return rng_comm, rng_comp, None, None
    if seed is None:
        # One fresh entropy for every child, as spawn_rngs(None, n) draws.
        seed = np.random.SeedSequence().entropy
    rng_comm, rng_comp = spawn_rngs(seed, 2)
    rng_fault = _fault_child(seed) if model.draws_on_sample else None
    schedule = model.sample(platform, rng_fault)
    if not schedule.any_faults:
        return rng_comm, rng_comp, None, None
    if rng_fault is None and schedule.spike_prob > 0.0:
        rng_fault = _fault_child(seed)
    return rng_comm, rng_comp, schedule, rng_fault


@dataclasses.dataclass(frozen=True)
class StreamFaultSchedule:
    """One *stream's* realized faults on the absolute stream clock.

    A multi-job stream (:mod:`repro.sim.multijob`) serves many jobs on
    one shared platform, so its fault timeline must be realized **once**
    — on the absolute clock, for the full star — and then *projected*
    into each job's frame: crash/pause/slowdown state carries across
    jobs, and a worker that died during job ``k`` stays dead for every
    job ``j > k``.

    :meth:`realize` samples the model exactly like the single-run
    engines do — from the *third spawned child* of the (stream) seed
    (see :func:`fault_stream`) — so a stream timeline is bitwise the
    schedule a single run under the same seed would have seen.

    :meth:`project` produces the per-job, per-subset
    :class:`FaultSchedule` view: times are shifted by the job's absolute
    start (clamping already-elapsed onsets to 0), worker indices are
    remapped to the subset's local numbering (``platform.subset``
    slices), and the memoryless per-dispatch spike parameters pass
    through verbatim (each job draws its spike stream from its own run
    seed, as single runs do).
    """

    #: Absolute-clock realization over the full platform.
    schedule: FaultSchedule

    @classmethod
    def realize(
        cls,
        model: "FaultModel",
        platform: "PlatformSpec",
        seed: "int | None",
    ) -> "StreamFaultSchedule":
        """Sample one stream timeline from the stream seed's fault stream.

        Uses the third spawned child of ``seed`` (:func:`fault_stream`,
        bitwise ``spawn_rngs(seed, 3)[2]``) — the same stream discipline
        as the engines, so the communication/computation error streams of
        any other consumer of the seed are untouched.  ``seed=None`` draws
        fresh entropy.
        """
        if seed is None:
            seed = np.random.SeedSequence().entropy
        return cls(schedule=model.sample(platform, fault_stream(seed)))

    @property
    def num_workers(self) -> int:
        return self.schedule.num_workers

    @property
    def any_faults(self) -> bool:
        return self.schedule.any_faults

    def crash_time(self, worker: int) -> float:
        """Absolute crash instant of ``worker`` (``inf`` = never)."""
        return self.schedule.crash_times[worker]

    def project(
        self, workers: typing.Sequence[int], offset: float
    ) -> FaultSchedule:
        """The job-relative, subset-local view of this timeline.

        ``workers`` are the *global* worker indices granted to the job
        (local index ``i`` of the projected schedule is global worker
        ``workers[i]``); ``offset`` is the job's absolute start time.

        * A crash at absolute ``t`` becomes a relative crash at
          ``max(t - offset, 0)`` — a worker already dead at the job's
          start is dead from its time 0 (every computation is lost).
        * A pause window ``[s, s + d)`` becomes its not-yet-elapsed
          remainder; a window fully in the past projects to no pause.
        * A slowdown onset becomes ``max(s - offset, 0)`` with the
          factor unchanged — once degraded, a worker stays degraded.
        * ``spike_prob``/``spike_delay`` pass through verbatim (the
          spike model is memoryless per dispatch).
        """
        if offset < 0.0:
            raise ValueError(f"projection offset must be >= 0, got {offset}")
        n = self.schedule.num_workers
        clear = _clear_schedule(1)
        crash: list[float] = []
        pauses: list[tuple[float, float]] = []
        slowdowns: list[tuple[float, float]] = []
        for w in workers:
            if not 0 <= w < n:
                raise ValueError(
                    f"worker {w} outside the stream platform (N={n})"
                )
            ct = self.schedule.crash_times[w]
            crash.append(ct if ct == _NEVER else max(ct - offset, 0.0))
            ps, pl = self.schedule.pauses[w]
            if pl > 0.0 and ps + pl > offset:
                rel_start = max(ps - offset, 0.0)
                pauses.append((rel_start, (ps + pl - offset) - rel_start))
            else:
                pauses.append(clear.pauses[0])
            ss, sf = self.schedule.slowdowns[w]
            if sf > 1.0:
                slowdowns.append((max(ss - offset, 0.0), sf))
            else:
                slowdowns.append(clear.slowdowns[0])
        return FaultSchedule(
            crash_times=tuple(crash),
            pauses=tuple(pauses),
            slowdowns=tuple(slowdowns),
            spike_prob=self.schedule.spike_prob,
            spike_delay=self.schedule.spike_delay,
        )


#: The per-(row, worker) fault fields of :class:`FaultPlane` and
#: :class:`FaultStack`, each with the neutral value that makes its
#: transform a bitwise no-op: no crash, no pause, no slowdown.
PLANE_FIELDS = (
    ("crash_time", _NEVER),
    ("pause_start", 0.0),
    ("pause_len", 0.0),
    ("slow_start", 0.0),
    ("slow_factor", 1.0),
)

#: The per-row fields beside them: zero spike probability, no fault.
_ROW_FIELDS = (("spike_prob", 0.0), ("spike_delay", 0.0), ("fault_row", False))


@dataclasses.dataclass
class FaultPlane:
    """A stack of realized fault schedules, one row per run.

    The batch engines copy planes into a :class:`FaultStack` instead of
    holding R :class:`FaultSchedule` objects.  Neutral entries
    (:data:`PLANE_FIELDS`, zero spike probability) make every transform
    a bitwise no-op, so clean rows stack freely with faulty ones.

    ``rngs`` holds each row's fault generator *positioned after the
    schedule draws* — retained only for rows that still need per-dispatch
    link-spike draws (``spike_prob > 0``), ``None`` elsewhere.
    """

    crash_time: np.ndarray
    pause_start: np.ndarray
    pause_len: np.ndarray
    slow_start: np.ndarray
    slow_factor: np.ndarray
    #: Per-row spike parameters (scalars in the schedule, so rank 1 here).
    spike_prob: np.ndarray
    spike_delay: np.ndarray
    #: Per-row ``FaultSchedule.any_faults``.
    fault_row: np.ndarray
    rngs: list

    @classmethod
    def clear(cls, rows: int, n: int) -> "FaultPlane":
        """An all-neutral plane (every row fault-free)."""
        return cls(
            **{name: np.full((rows, n), neutral) for name, neutral in PLANE_FIELDS},
            **{name: np.full(rows, neutral) for name, neutral in _ROW_FIELDS},
            rngs=[None] * rows,
        )

    @property
    def num_rows(self) -> int:
        return self.crash_time.shape[0]

    @property
    def num_workers(self) -> int:
        return self.crash_time.shape[1]

    def schedule(self, row: int) -> FaultSchedule:
        """Row ``row`` re-materialized as a scalar :class:`FaultSchedule`."""
        return _columns_schedule(
            self.num_workers,
            {name: getattr(self, name)[row].tolist() for name, _ in PLANE_FIELDS},
            spike_prob=float(self.spike_prob[row]),
            spike_delay=float(self.spike_delay[row]),
        )


def _columns_schedule(n: int, columns: dict, **spike) -> FaultSchedule:
    """A schedule from per-worker columns named as in :data:`PLANE_FIELDS`.

    Fields missing from ``columns`` take their neutral value.
    """
    col = {name: columns.get(name, (neutral,) * n) for name, neutral in PLANE_FIELDS}
    return FaultSchedule(
        crash_times=tuple(col["crash_time"]),
        pauses=tuple(zip(col["pause_start"], col["pause_len"])),
        slowdowns=tuple(zip(col["slow_start"], col["slow_factor"])),
        **spike,
    )


class FaultPlaneCache:
    """Fault planes realized once and shared by several batch passes.

    A sweep simulates every algorithm of a (platform, error) cell on the
    same seeds, so every algorithm's copy of a fault cell would realize
    the same plane.  :meth:`realize` samples each distinct (model,
    platform, seeds) plane once.  The cached arrays are read-only: the
    batch engines only copy them into their own stacks.  Every call
    returns fresh copies of the spike generators, positioned after the
    schedule draws, because each consumer draws from them in its own
    dispatch order.  The cache lives as long as its owner keeps it (one
    :func:`~repro.experiments.runner.run_sweep` call).
    """

    def __init__(self) -> None:
        self._planes: dict = {}
        self._seeds: typing.Iterable[int] = ()
        self._table: StateTable | None = None

    def expect(self, seeds: typing.Iterable[int]) -> None:
        """Declare the run seeds of every plane this cache may realize.

        The first plane sampled afterwards hashes all their fault
        streams' states in one pass (a
        :class:`~repro.errors.rng.StateTable`), and every plane is
        sampled inside that table's scope, so no plane pays the batched
        hash's fixed cost on its own.  A seed not declared derives as it
        would without the table.
        """
        self._seeds, self._table = seeds, None

    def realize(self, model: FaultModel, platform: "PlatformSpec", seeds) -> FaultPlane:
        """``model.sample_batch(platform, seeds)``, sampled at most once.

        Planes are keyed by value, so ``model`` and ``platform`` must be
        hashable (every in-tree model and platform is).
        """
        key = (model, platform, tuple(int(s) for s in seeds))
        plane = self._planes.get(key)
        if plane is None:
            if self._table is None:
                self._table = StateTable(self._seeds, [(2,)])
            with self._table.scope():
                plane = model.sample_batch(platform, seeds)
            for field in dataclasses.fields(plane):
                value = getattr(plane, field.name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            self._planes[key] = plane
        return dataclasses.replace(
            plane, rngs=[None if g is None else copy.deepcopy(g) for g in plane.rngs]
        )


#: Smallest block of spike draws a :class:`FaultStack` grows by.  Any
#: block schedule yields the same values; the floor only saves calls.
_SPIKE_BLOCK = 160


def _new_array(name, shape, dtype=np.float64, fill=None) -> np.ndarray:
    return np.full(shape, fill, dtype=dtype)


class FaultStack:
    """One batch pass's fault rows, with the fault rules applied to rows.

    Both batch engines (:mod:`repro.sim.batch`, :mod:`repro.sim.dynbatch`)
    apply faults only through this class.  Each transform calls the rule
    :class:`FaultSchedule` calls, under ``ARRAY_OPS``:

    * :meth:`stretch` is :func:`pause_stretch`, then :func:`slow_stretch`
      (:meth:`FaultSchedule.compute_duration`);
    * :meth:`lost` is :func:`is_lost` and :meth:`loss_time` is
      :func:`loss_rule` (:meth:`FaultSchedule.loss_time`);
    * :meth:`spikes` is :func:`spike_rule` on each row's fault stream,
      drawn in blocks (``Generator.random(k)`` equals ``k`` scalar calls),
      so column ``k`` is the ``k``-th :meth:`FaultSchedule.link_extra`.

    ``idx`` is ``None`` for the whole ``(rows, workers)`` block, or flat
    ``row * n + worker`` indices.  Rows are padded to the pass's worker
    count with the neutral values of :data:`PLANE_FIELDS`, so clean rows
    and pad workers stack freely with faulty ones.  The ``any_*`` flags
    let a pass skip what no row needs.  Nothing is allocated before the
    first :meth:`put`; ``alloc(name, shape, dtype, fill)`` supplies the
    arrays (e.g. :meth:`repro.sim.dynbatch.BatchArena.take`).

    ``perf``, when given, is a mutable mapping the stack bills into:
    ``fault_<kind>_s`` wall time per transform kind (``crash``,
    ``pause``, ``slow``, ``spike``) and per :meth:`timed` block, and
    ``rows_deferred_scalar`` per :meth:`clear_row`.
    """

    def __init__(self, rows: int, n: int, alloc=_new_array, perf=None):
        self.rows = rows
        self.n = n
        self.perf = perf
        self._alloc = alloc
        self._live = False
        self.any_crash = self.any_pause = self.any_slow = False
        self.any_spike = self.any_fault = False

    # -- building -------------------------------------------------------------
    def put(self, rows: slice, plane: FaultPlane) -> None:
        """Copy ``plane`` into the row block ``rows``."""
        if not self._live:
            self._live = True
            for name, neutral in PLANE_FIELDS:
                setattr(self, name, self._alloc(name, (self.rows, self.n), fill=neutral))
            for name, neutral in _ROW_FIELDS:
                setattr(
                    self, name, self._alloc(name, (self.rows,), type(neutral), fill=neutral)
                )
            self._rngs: list = [None] * self.rows
            self._draws = np.ones((self.rows, 0))
        for name, _ in PLANE_FIELDS:
            getattr(self, name)[rows, : plane.num_workers] = getattr(plane, name)
        for name, _ in _ROW_FIELDS:
            getattr(self, name)[rows] = getattr(plane, name)
        self._rngs[rows] = plane.rngs

    def clear_row(self, row: int) -> None:
        """Reset ``row`` to neutral: the pass replays it on the scalar engine."""
        for name, neutral in PLANE_FIELDS + _ROW_FIELDS:
            getattr(self, name)[row] = neutral
        self._rngs[row] = None
        if self.perf is not None:
            self.perf["rows_deferred_scalar"] = self.perf.get("rows_deferred_scalar", 0) + 1

    def seal(self) -> None:
        """Set the ``any_*`` flags from the rows held."""
        if not self._live:
            return
        self.any_crash = bool(np.isfinite(self.crash_time).any())
        self.any_pause = bool((self.pause_len > 0.0).any())
        self.any_slow = bool((self.slow_factor > 1.0).any())
        self.any_fault = bool(self.fault_row.any())
        self.any_spike = any(g is not None for g in self._rngs)

    def compact(self, keep: np.ndarray) -> None:
        """Keep only rows ``keep`` (sorted), moved to the front in place."""
        if not self._live:
            return
        m = int(keep.size)
        for name, _ in PLANE_FIELDS + _ROW_FIELDS:
            array = getattr(self, name)
            array[:m] = array[keep]
            setattr(self, name, array[:m])
        self._rngs = [self._rngs[r] for r in keep.tolist()]
        self._draws = self._draws[keep]
        self.rows = m
        # Survivors may no longer need every transform.
        self.seal()

    # -- transforms -----------------------------------------------------------
    def _at(self, name: str, idx) -> np.ndarray:
        array = getattr(self, name)
        return array if idx is None else array.reshape(-1)[idx]

    def stretch(self, idx, start: np.ndarray, dur: np.ndarray) -> np.ndarray:
        """Effective compute durations: :meth:`FaultSchedule.compute_duration`."""
        if self.any_pause:
            t0 = self._tic()
            dur = pause_stretch(
                ARRAY_OPS, start, dur,
                self._at("pause_start", idx), self._at("pause_len", idx),
            )
            self._toc("pause", t0)
        if self.any_slow:
            t0 = self._tic()
            dur = slow_stretch(
                ARRAY_OPS, start, dur,
                self._at("slow_start", idx), self._at("slow_factor", idx),
            )
            self._toc("slow", t0)
        return dur

    def lost(self, idx, end: np.ndarray) -> np.ndarray:
        """Which computations ending at ``end`` outlive their worker's crash."""
        t0 = self._tic()
        out = is_lost(self._at("crash_time", idx), end)
        self._toc("crash", t0)
        return out

    def loss_time(self, idx, arrival: np.ndarray, end: np.ndarray):
        """``(lost, when)`` of :func:`loss_rule`, element-wise."""
        t0 = self._tic()
        out = loss_rule(ARRAY_OPS, self._at("crash_time", idx), arrival, end)
        self._toc("crash", t0)
        return out

    def spikes(self, rows, cols) -> np.ndarray:
        """Extra link occupancy of dispatch ``cols`` of ``rows``.

        Element ``i`` is what row ``rows[i]``'s ``cols[i]``-th
        :meth:`FaultSchedule.link_extra` call returns.  With ``rows=None``,
        ``cols`` is a count and the result is every row's first ``cols``
        draws, a ``(rows, cols)`` block.
        """
        t0 = self._tic()
        if rows is None:
            self._draw(cols)
            u = self._draws[:, :cols]
            out = spike_rule(
                ARRAY_OPS, u, self.spike_prob[:, None], self.spike_delay[:, None]
            )
        else:
            self._draw(int(cols.max()) + 1)
            u = self._draws.reshape(-1)[rows * self._draws.shape[1] + cols]
            out = spike_rule(ARRAY_OPS, u, self.spike_prob[rows], self.spike_delay[rows])
        self._toc("spike", t0)
        return out

    def _draw(self, cols: int) -> None:
        """Materialize at least ``cols`` draw columns for every row.

        Rows without a spike stream hold exact ones, which never undercut
        a spike probability.
        """
        have = self._draws.shape[1]
        if cols <= have:
            return
        target = max(cols, 2 * have, _SPIKE_BLOCK)
        draws = np.ones((self.rows, target))
        draws[:, :have] = self._draws
        for r, rng in enumerate(self._rngs):
            if rng is not None:
                draws[r, have:] = rng.random(target - have)
        self._draws = draws

    # -- timing ---------------------------------------------------------------
    @contextlib.contextmanager
    def timed(self, kind: str):
        """Bill the block's wall time to ``fault_<kind>_s``."""
        t0 = self._tic()
        try:
            yield
        finally:
            self._toc(kind, t0)

    def _tic(self) -> float:
        return perf_counter() if self.perf is not None else 0.0

    def _toc(self, kind: str, t0: float) -> None:
        if self.perf is not None:
            key = f"fault_{kind}_s"
            self.perf[key] = self.perf.get(key, 0.0) + perf_counter() - t0


class FaultModel:
    """A configured fault scenario (see module docstring).

    Subclasses implement :meth:`sample`; instances hold configuration only
    and may be reused across thousands of runs.  :attr:`spec` is the
    canonical spec string (round-trips through :func:`make_fault_model`).
    """

    spec: str = NO_FAULT_SPEC

    #: Whether :meth:`sample` draws from its stream.  Models that draw
    #: nothing set it false: :func:`sample_run` then passes ``rng=None``
    #: and derives the fault stream only if the schedule draws spikes.
    draws_on_sample: typing.ClassVar[bool] = True

    def sample(
        self, platform: "PlatformSpec", rng: "np.random.Generator | None"
    ) -> FaultSchedule:
        """Realize one run's fault schedule from the fault RNG stream.

        ``rng`` is ``None`` when :attr:`draws_on_sample` is false.
        """
        raise NotImplementedError

    def sample_batch(self, platform: "PlatformSpec", seeds) -> FaultPlane:
        """Realize one schedule per seed, stacked into a :class:`FaultPlane`.

        Bit-identical to looping :meth:`sample` over per-seed
        :func:`fault_stream` generators — the contract the batch engines
        rely on and ``tests/properties`` enforces.  This base
        implementation *is* that loop, so third-party models are correct
        by construction; the in-tree models override it with batched
        draws that decode to the same values from the same stream.
        """
        plane = FaultPlane.clear(len(seeds), platform.N)
        for r, rng in enumerate(fault_streams(seeds)):
            s = self.sample(platform, rng)
            plane.crash_time[r] = s.crash_times
            plane.pause_start[r], plane.pause_len[r] = zip(*s.pauses)
            plane.slow_start[r], plane.slow_factor[r] = zip(*s.slowdowns)
            plane.spike_prob[r], plane.spike_delay[r] = s.spike_prob, s.spike_delay
            if s.any_faults:
                plane.fault_row[r] = True
                if s.spike_prob > 0.0:
                    plane.rngs[r] = rng
        return plane

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r})"


@dataclasses.dataclass(frozen=True, repr=False)
class NoFaults(FaultModel):
    """The identity scenario: nothing ever fails."""

    spec: str = NO_FAULT_SPEC
    draws_on_sample: typing.ClassVar[bool] = False

    def sample(
        self, platform: "PlatformSpec", rng: "np.random.Generator | None"
    ) -> FaultSchedule:
        return _clear_schedule(platform.N)

    def sample_batch(self, platform: "PlatformSpec", seeds) -> FaultPlane:
        # Nothing is drawn, so no generator is even constructed.
        return FaultPlane.clear(len(seeds), platform.N)


@dataclasses.dataclass(frozen=True, repr=False)
class FrozenFaults(FaultModel):
    """A pre-realized :class:`FaultSchedule` wrapped as a model.

    :meth:`sample` returns the wrapped schedule verbatim, drawing
    nothing from the fault stream — so the per-dispatch spike draws
    (consumed *after* sampling) still come from the run seed's fresh
    fault stream, exactly as they do for the sampling models (a
    spike-free schedule never derives that stream, see
    :func:`sample_run`).  This is how the multi-job stream layer hands
    each job its projected view of
    a :class:`StreamFaultSchedule` through the unchanged single-run
    ``simulate()`` front door, and how the conformance suite replays a
    projected schedule directly.

    ``spec`` is ``"frozen"`` for display; frozen models do not
    round-trip through :func:`make_fault_model` (they are realizations,
    not scenarios).
    """

    schedule: FaultSchedule = dataclasses.field(
        default_factory=lambda: _clear_schedule(1)
    )
    spec: str = dataclasses.field(default="frozen", init=False)
    draws_on_sample: typing.ClassVar[bool] = False

    def sample(
        self, platform: "PlatformSpec", rng: "np.random.Generator | None"
    ) -> FaultSchedule:
        if platform.N != self.schedule.num_workers:
            raise ValueError(
                f"frozen schedule covers {self.schedule.num_workers} worker(s) "
                f"but the platform has {platform.N}"
            )
        return self.schedule


def _as_floats(model, *names: str) -> None:
    """Store the named parameters of a frozen model as plain floats, as specs do."""
    for name in names:
        object.__setattr__(model, name, float(getattr(model, name)))


def _check_prob_tmax(prob: float, tmax: float) -> None:
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"fault probability must be in [0, 1], got {prob}")
    if tmax < 0.0:
        raise ValueError(f"fault onset horizon must be >= 0, got {tmax}")


def _placed(ops, hits, **at_hit) -> dict:
    """Each named plane field's column: its ``at_hit`` value where hit, else neutral."""
    neutral = dict(PLANE_FIELDS)
    return {
        name: [ops.where(hit, value, neutral[name]) for hit, value in zip(hits, values)]
        for name, values in at_hit.items()
    }


class _OnsetFaults(FaultModel):
    """A kind that strikes each worker w.p. ``prob`` at an onset uniform on ``[0, tmax]``.

    :meth:`sample` and :meth:`sample_batch` run the same two rules, once
    on one run's floats and once on every run's rows: :meth:`_strikes`
    (the :func:`onset_walk` over the fault stream) and the kind's
    ``_place``, which maps strikes to plane-field columns (:func:`_placed`).
    Both draw the walk's ``2n``-uniform block at once; no onset kind
    reads its fault stream after sampling.
    """

    def _strikes(self, ops, n: int, draw):
        """``(hits, onsets)`` columns; ``draw(k)`` reads ``k`` uniforms per run."""
        return onset_walk(ops, draw(2 * n), n, self.prob, self.tmax)

    def sample(self, platform: "PlatformSpec", rng: np.random.Generator) -> FaultSchedule:
        n = platform.N
        strikes = self._strikes(SCALAR_OPS, n, lambda k: rng.random(k).tolist())
        return _columns_schedule(n, self._place(SCALAR_OPS, *strikes))

    def sample_batch(self, platform: "PlatformSpec", seeds) -> FaultPlane:
        plane = FaultPlane.clear(len(seeds), platform.N)

        def draw(k: int) -> np.ndarray:
            block = np.empty((len(seeds), k))
            for r, rng in enumerate(fault_streams(seeds)):
                block[r] = rng.random(k)
            return block

        strikes = self._strikes(ARRAY_OPS, platform.N, draw)
        for name, column in self._place(ARRAY_OPS, *strikes).items():
            getattr(plane, name)[:] = np.array(column).T
        # A zero-length pause or a factor-1 slowdown never perturbs.
        plane.fault_row[:] = (
            np.isfinite(plane.crash_time).any(axis=1)
            | (plane.pause_len > 0.0).any(axis=1)
            | (plane.slow_factor > 1.0).any(axis=1)
        )
        return plane


@dataclasses.dataclass(frozen=True, repr=False)
class CrashFaults(_OnsetFaults):
    """Permanent worker crashes.

    Random form: each worker independently crashes with probability
    ``prob`` at a time uniform on ``[0, tmax]``.  ``spare_one`` (default)
    keeps at least one worker alive — when every worker draws a crash, the
    latest-crashing one is spared — so recovery-aware schedulers always
    have somewhere to re-dispatch.  Deterministic form: ``worker``/``at``
    pin exactly one crash (used by tests and the docs examples).
    """

    prob: float = 0.0
    tmax: float = 0.0
    worker: int | None = None
    at: float | None = None
    spare_one: bool = True

    def __post_init__(self) -> None:
        if (self.worker is None) != (self.at is None):
            raise ValueError("deterministic crashes need both worker= and at=")
        if self.worker is None:
            _check_prob_tmax(self.prob, self.tmax)
        elif self.at < 0.0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")

    @property
    def spec(self) -> str:
        if self.worker is not None:
            return f"crash:worker={self.worker},at={_fmt(self.at)}"
        return f"crash:p={_fmt(self.prob)},tmax={_fmt(self.tmax)}"

    def _strikes(self, ops, n: int, draw):
        if self.worker is None:
            return super()._strikes(ops, n, draw)
        if not 0 <= self.worker < n:
            raise ValueError(f"crash worker {self.worker} outside the platform (N={n})")
        return [w == self.worker for w in range(n)], [float(self.at)] * n

    def _place(self, ops, hits, onsets) -> dict:
        times = _placed(ops, hits, crash_time=onsets)["crash_time"]
        everyone = functools.reduce(operator.and_, hits)
        if self.spare_one and self.worker is None and ops.any(everyone):
            # Spare the first latest onset, as max()/argmax break ties.
            latest, spare = onsets[0], 0
            for j in range(1, len(onsets)):
                later = onsets[j] > latest
                latest = ops.where(later, onsets[j], latest)
                spare = ops.where(later, j, spare)
            times = [ops.where(everyone & (spare == j), _NEVER, t) for j, t in enumerate(times)]
        return {"crash_time": times}


@dataclasses.dataclass(frozen=True, repr=False)
class PauseFaults(_OnsetFaults):
    """Transient stalls: affected workers compute nothing for ``duration``."""

    prob: float = 0.0
    tmax: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        _as_floats(self, "prob", "tmax", "duration")
        _check_prob_tmax(self.prob, self.tmax)
        if self.duration < 0.0:
            raise ValueError(f"pause duration must be >= 0, got {self.duration}")

    @property
    def spec(self) -> str:
        return f"pause:p={_fmt(self.prob)},tmax={_fmt(self.tmax)},dur={_fmt(self.duration)}"

    def _place(self, ops, hits, onsets) -> dict:
        return _placed(ops, hits, pause_start=onsets, pause_len=[self.duration] * len(hits))


@dataclasses.dataclass(frozen=True, repr=False)
class SlowdownFaults(_OnsetFaults):
    """Sustained degradation: computations stretch by ``factor`` after onset."""

    prob: float = 0.0
    tmax: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        _as_floats(self, "prob", "tmax", "factor")
        _check_prob_tmax(self.prob, self.tmax)
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")

    @property
    def spec(self) -> str:
        return f"slow:p={_fmt(self.prob)},tmax={_fmt(self.tmax)},factor={_fmt(self.factor)}"

    def _place(self, ops, hits, onsets) -> dict:
        return _placed(ops, hits, slow_start=onsets, slow_factor=[self.factor] * len(hits))


@dataclasses.dataclass(frozen=True, repr=False)
class LinkSpikeFaults(FaultModel):
    """Per-dispatch link latency spikes (drawn in dispatch order)."""

    prob: float = 0.0
    delay: float = 0.0
    draws_on_sample: typing.ClassVar[bool] = False

    def __post_init__(self) -> None:
        _as_floats(self, "prob", "delay")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"spike probability must be in [0, 1], got {self.prob}")
        if self.delay < 0.0:
            raise ValueError(f"spike delay must be >= 0, got {self.delay}")

    @property
    def spec(self) -> str:
        return f"spike:p={_fmt(self.prob)},delay={_fmt(self.delay)}"

    def sample(
        self, platform: "PlatformSpec", rng: "np.random.Generator | None"
    ) -> FaultSchedule:
        return _columns_schedule(platform.N, {}, spike_prob=self.prob, spike_delay=self.delay)

    def sample_batch(self, platform: "PlatformSpec", seeds) -> FaultPlane:
        plane = FaultPlane.clear(len(seeds), platform.N)
        plane.spike_prob[:] = self.prob
        plane.spike_delay[:] = self.delay
        if self.prob > 0.0:
            plane.fault_row[:] = True
            # sample() draws nothing, so a fresh stream per row is
            # exactly the post-sample generator state.
            plane.rngs = fault_streams(seeds)
        return plane


def _fmt(value: float | int) -> str:
    """Compact canonical number formatting for spec strings."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def make_fault_model(spec: str | FaultModel) -> FaultModel:
    """Parse a fault spec string (see module docstring) into a model.

    Accepts an already-constructed :class:`FaultModel` unchanged, so
    callers can be agnostic about which form they hold.
    """
    if isinstance(spec, FaultModel):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"fault spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text in (NO_FAULT_SPEC, ""):
        return NoFaults()
    kind, sep, body = text.partition(":")
    kind = kind.strip()
    if not sep:
        raise ValueError(f"fault spec {spec!r} has no parameters (expected kind:k=v,…)")
    params = parse_kv(body, kind, "fault")
    if kind == "crash":
        if "worker" in params or "at" in params:
            worker, at = take(params, kind, "worker", "at", what="fault")
            if worker != int(worker):
                raise ValueError(f"crash worker index must be integral, got {worker}")
            return CrashFaults(worker=int(worker), at=at)
        p, tmax = take(params, kind, "p", "tmax", what="fault")
        return CrashFaults(prob=p, tmax=tmax)
    if kind == "pause":
        p, tmax, dur = take(params, kind, "p", "tmax", "dur", what="fault")
        return PauseFaults(prob=p, tmax=tmax, duration=dur)
    if kind == "slow":
        p, tmax, factor = take(params, kind, "p", "tmax", "factor", what="fault")
        return SlowdownFaults(prob=p, tmax=tmax, factor=factor)
    if kind == "spike":
        p, delay = take(params, kind, "p", "delay", what="fault")
        return LinkSpikeFaults(prob=p, delay=delay)
    raise ValueError(
        f"unknown fault kind {kind!r}; available: crash, pause, slow, spike, none"
    )
