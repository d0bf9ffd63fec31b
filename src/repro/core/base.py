"""The scheduler / engine contract.

Both simulation engines (:mod:`repro.sim.fastsim` and the DES-based
:mod:`repro.sim.engine`) drive schedulers through the same interface:

1. A :class:`Scheduler` is a configured, reusable algorithm object.  Calling
   :meth:`Scheduler.create_source` binds it to one run (platform + total
   workload) and returns a fresh stateful :class:`DispatchSource`.  A
   registry scheduler derives that binding in one place — its
   :meth:`~Scheduler.static_plan` or its :meth:`~Scheduler.batch_kernel`
   spec — which the scalar engines and the batch engines share.
2. Whenever the master's serialized link is free, the engine calls
   :meth:`DispatchSource.next_dispatch` with a :class:`MasterView` of the
   *observable* state (current time, what has been sent, which completions
   have been announced).  The source answers with

   * a :class:`Dispatch` — send ``size`` units to ``worker`` now;
   * :data:`WAIT` — do nothing until the next completion is announced
     (self-scheduled algorithms block here when no worker is requesting);
   * ``None`` — the whole workload has been dispatched.

The view deliberately exposes only information a real master would have:
its own dispatch history and completion notifications with timestamps in
the past.  It never exposes in-flight durations, so dynamic schedulers
cannot peek at future randomness.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.platform.spec import PlatformSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.chunks import ChunkPlan

__all__ = [
    "CompletionNote",
    "LossNote",
    "Dispatch",
    "WAIT",
    "Wait",
    "MasterView",
    "DispatchSource",
    "StaticPlanSource",
    "Scheduler",
    "DeadlockError",
]


class DeadlockError(RuntimeError):
    """A source WAITed while nothing was pending — the run cannot progress."""


@dataclasses.dataclass(frozen=True, slots=True, order=True)
class CompletionNote:
    """One observed completion: when which chunk finished on which worker."""

    time: float
    chunk_index: int
    worker: int
    size: float


@dataclasses.dataclass(frozen=True, slots=True, order=True)
class LossNote:
    """One observed chunk loss: a crashed worker's chunk returned to the pool.

    The master observes a loss at ``max(crash_time, arrival)``: chunks
    already queued on the worker are reported when its crash is detected,
    chunks still in flight when their delivery fails.  Lost chunks leave
    the pending set at :attr:`time`, exactly like completions, but deliver
    no work — recovery-aware sources re-add :attr:`size` to their
    remaining pool.
    """

    time: float
    chunk_index: int
    worker: int
    size: float


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class Dispatch:
    """An instruction to send ``size`` workload units to ``worker`` now."""

    worker: int
    size: float
    phase: str = ""

    def __init__(self, worker: int, size: float, phase: str = "") -> None:
        # Sources build one Dispatch per chunk, so this sets the slots
        # directly instead of the frozen __init__'s object.__setattr__
        # calls (same fields, validation, equality and hashing).
        if size <= 0:
            raise ValueError(f"dispatch size must be > 0, got {size}")
        _set_worker(self, worker)
        _set_size(self, size)
        _set_phase(self, phase)


_set_worker = Dispatch.worker.__set__
_set_size = Dispatch.size.__set__
_set_phase = Dispatch.phase.__set__


class Wait:
    """Singleton sentinel: 'ask me again after the next completion'."""

    _instance: "Wait | None" = None

    def __new__(cls) -> "Wait":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "WAIT"


#: The sentinel instance sources return to block on the next completion.
WAIT = Wait()


class MasterView:
    """Observable master state handed to dispatch sources.

    Engines implement the two abstract accessors; everything else is
    derived.  All quantities are as *observed at* :attr:`now`: a chunk
    counts as pending from the moment it is dispatched until its completion
    notification timestamp is ``<= now``.
    """

    @property
    def now(self) -> float:
        """Current decision time."""
        raise NotImplementedError

    @property
    def num_workers(self) -> int:
        """Number of workers on the platform."""
        raise NotImplementedError

    def pending_chunks(self, worker: int) -> int:
        """Chunks dispatched to ``worker`` and not yet observed complete."""
        raise NotImplementedError

    def pending_work(self, worker: int) -> float:
        """Total size of those pending chunks."""
        raise NotImplementedError

    def observed_completions(self) -> "tuple[CompletionNote, ...]":
        """All completion announcements observed so far.

        Sorted by ``(time, chunk_index)`` — identical in both engines
        regardless of internal announcement mechanics.  This is the raw
        material for *online* error estimation (the paper's future-work
        APST integration): consecutive completions of a never-idle worker
        bound the effective compute duration of each chunk.
        """
        raise NotImplementedError

    # -- fault observability ------------------------------------------------
    #
    # Defaults describe a fault-free world, so views (and tests) that
    # predate fault injection keep working unchanged.  Engines running with
    # a fault schedule override all three.

    @property
    def faults_possible(self) -> bool:
        """Whether this run may experience worker faults at all.

        Recovery-aware sources only pay the bookkeeping (loss absorption,
        crash filtering, end-of-work WAITs) when this is true, keeping the
        fault-free decision arithmetic bit-identical to before.
        """
        return False

    def crashed_workers(self) -> "tuple[int, ...]":
        """Workers whose crash the master has detected (``crash <= now``)."""
        return ()

    def observed_losses(self) -> "tuple[LossNote, ...]":
        """All loss announcements observed so far, sorted like completions.

        Sorted by ``(time, chunk_index)``; append-only over the run, so
        sources may keep a cursor into it.
        """
        return ()

    # -- derived helpers ----------------------------------------------------
    #
    # Engines may override these with cheaper equivalents; every override
    # must agree with the definitions over pending_chunks given here.

    def is_idle(self, worker: int) -> bool:
        """True when the worker has nothing dispatched-and-unfinished."""
        return self.pending_chunks(worker) == 0

    def first_idle(self, exclude: "typing.Collection[int]" = ()) -> "int | None":
        """Lowest-index idle worker not in ``exclude``, or ``None``.

        When it is not ``None`` it is the lexicographic
        ``(pending_chunks, pending_work, index)`` minimum over the workers
        outside ``exclude``: an idle worker's pending work is a prefix
        difference of equal entries, exactly ``0.0``, so the index alone
        breaks the tie.
        """
        for i in range(self.num_workers):
            if i not in exclude and self.is_idle(i):
                return i
        return None

    def any_pending(self) -> bool:
        """True while some worker has a dispatched-and-unfinished chunk."""
        return not all(self.is_idle(i) for i in range(self.num_workers))


class DispatchSource:
    """Stateful per-run decision maker (see module docstring)."""

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        raise NotImplementedError


class StaticPlanSource(DispatchSource):
    """Replays a precomputed ordered plan as fast as the link allows.

    A tuple ``plan`` is kept as it is, not copied: dispatches are frozen
    and the cursor is the source's own, so any number of sources may
    replay one plan's shared :attr:`ChunkPlan.dispatches
    <repro.core.chunks.ChunkPlan.dispatches>` side by side.  Any other
    iterable is copied into a tuple.
    """

    def __init__(self, plan: typing.Iterable[Dispatch]):
        self._plan = plan if isinstance(plan, tuple) else tuple(plan)
        self._cursor = 0

    @property
    def remaining_dispatches(self) -> int:
        """Number of plan entries not yet handed to the engine."""
        return len(self._plan) - self._cursor

    def next_dispatch(self, view: MasterView) -> "Dispatch | None":
        if self._cursor >= len(self._plan):
            return None
        dispatch = self._plan[self._cursor]
        self._cursor += 1
        return dispatch


class Scheduler:
    """A configured scheduling algorithm.

    Subclasses set :attr:`name` and implement one binding: static
    schedulers :meth:`static_plan`, dynamic ones :meth:`batch_kernel`,
    whose spec also builds the scalar source.  The inherited
    :meth:`create_source` then serves every engine from that one
    binding.  Schedulers without either (third-party rules the batch
    engines cannot run) override :meth:`create_source` instead.
    Scheduler objects hold only configuration — all per-run state lives in
    the source — so one scheduler instance can be reused across thousands
    of simulations.
    """

    #: Human-readable algorithm name (used in reports and plots).
    name: str = "scheduler"

    #: Whether the dispatch sequence is fixed before the run starts
    #: (independent of observed completions *and* of the error magnitude).
    #: Static schedulers implement :meth:`static_plan` and run through the
    #: vectorized batch engine (:func:`repro.sim.batch.simulate_static_cells`);
    #: every other scheduler implements :meth:`batch_kernel` and runs
    #: through the lockstep batch engine
    #: (:func:`repro.sim.dynbatch.simulate_dynamic_cells`).  Both batch
    #: engines implement the fault semantics of the scalar engines.
    is_static: bool = False

    def create_source(self, platform: PlatformSpec, total_work: float) -> DispatchSource:
        """Bind to one run and return a fresh dispatch source.

        Static schedulers replay :meth:`static_plan` under the plan's own
        phase labels.  Registry static schedulers return one cached plan
        per ``(platform, total_work)``, so every run on that input replays
        the plan's one tuple of :attr:`~repro.core.chunks.ChunkPlan.
        dispatches`: binding a static run costs a cache lookup and a
        cursor, not a plan rebuild.  The others build the source of their
        :meth:`batch_kernel` spec (:meth:`KernelSpec.source
        <repro.core.lockstep.KernelSpec.source>`).
        """
        if self.is_static:
            return StaticPlanSource(self.static_plan(platform, total_work).dispatches)
        return self.batch_kernel(platform, total_work).source()

    def static_plan(self, platform: PlatformSpec, total_work: float) -> "ChunkPlan":
        """The fixed dispatch sequence of a static scheduler.

        Only meaningful when :attr:`is_static` is true; the default raises.
        The plan depends on nothing but ``(platform, total_work)``, so
        callers may solve it once and reuse it across error levels and
        repetitions (the sweep fast path does exactly that).  Registry
        schedulers return the *same* :class:`~repro.core.chunks.ChunkPlan`
        object for equal inputs, which keeps identity-keyed memos such as
        :func:`repro.sim.batch.compile_static_plan` hitting.
        """
        raise NotImplementedError(f"{self.name} is not a static scheduler")

    def batch_kernel(self, platform: PlatformSpec, total_work: float):
        """The lockstep decision-rule spec of a dynamic scheduler.

        Only meaningful when :attr:`is_static` is false; the default
        raises.  Returns a :class:`repro.core.lockstep.KernelSpec` bound
        to ``(platform, total_work)`` — and, through the scheduler's own
        configuration, to the cell's error magnitude where the algorithm
        consumes it (RUMR's phase split).  The spec is the run's one
        binding: it builds the scalar source too, so it carries only what
        both engines read and leaves kernel-only conversions to
        ``make_kernel``.  Specs with equal ``group_key`` can be merged into
        one kernel spanning many cells.  The lockstep trajectory must
        match the scalar engine bit-for-bit when fed the same
        perturbation factors.
        """
        raise NotImplementedError(f"{self.name} has no lockstep batch kernel")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
