"""Lockstep kernels: dynamic scheduling decisions as row-wise array ops.

The scalar engine asks a :class:`~repro.core.base.DispatchSource` one
decision at a time.  A *lockstep kernel* answers the same question for R
independent runs at once: given the master-observable state of every row
(which workers are idle, as observed at each row's own clock), fill
per-row ``action``/``worker``/``size`` arrays.  Rows proceed through
their *own* trajectories — different rows may be in different rounds,
batches, or phases — the kernel merely evaluates all of their next
decisions in one pass of NumPy arithmetic.

This is possible because the batchable dynamic schedulers (Factoring,
WeightedFactoring, FSC, RUMR, AdaptiveRUMR) decide from pure arithmetic
over master state: no data-dependent control flow survives except
per-row branches, which become masks.  Each rule's arithmetic is written
once, in its scheduler's module, over an op namespace: the scalar source
passes :data:`SCALAR_OPS` (builtins, no numpy), the kernel
:data:`ARRAY_OPS` (row-wise numpy).  IEEE ``+ − × ÷``, ``min``, ``max``
and ``sqrt`` round alike on Python floats and float64 rows and both
``fold`` ops add left to right, so with the same worker choice a
lockstep row reproduces the scalar engine's trajectory bit for bit when
fed the same perturbation factors.

The worker choice needs no pending *work*.  The self-scheduled rule is
the lexicographic minimum of ``(pending_chunks, pending_work, index)``,
dispatched only when that worker has zero pending chunks (the classic
lookahead of 1).  Such a worker's pending work is exactly ``0.0`` in
both engines (the scalar views subtract a completed-work prefix sum from
itself, ``prefix[k] − prefix[k]``), so the work key always ties and the
rule reduces to "the lowest-index idle live worker, else wait":
:func:`first_idle` here, :meth:`~repro.core.base.MasterView.first_idle`
in the scalar sources.  FSC's idle scan and RUMR's out-of-order phase-1
pick are the same rule.

Worker sets travel as bit words: row ``r``'s set is ``words[r]``, a
``(W,)`` run of uint64 words with ``W = ceil(n_max / 64)``
(:func:`word_count`), worker ``i`` at bit ``i % 64`` of word ``i // 64``.
The engine's idle set, the crash set and the plan's availability are
all such words, so "the lowest-index idle live worker" is the lowest
set bit of ``idle & ~crashed`` (:func:`lowest_bit`).

Kernels are built from :class:`KernelSpec` objects (one per simulated
cell) by :meth:`KernelSpec.make_kernel`; specs with equal ``group_key``
may be merged into one kernel spanning many cells, padded to a common
worker count.  Padded worker slots are never idle: the engine never
sets their bits, so no kernel can select them.  The same spec builds
the cell's scalar source (:meth:`KernelSpec.source`), so each run's
binding — phase split, plan rows, chunk floors — is derived once for
both engines.  The control
flow is written once per engine: :class:`PoolKernel` is the lockstep
step of every self-scheduled pool, and :class:`PlanCursor` is the scalar
twin of :class:`PlanRounds`.

Fault-aware decisions travel through a :class:`KernelStepContext`: the
engine hands each merged group the crash state it would observe through
the scalar :class:`~repro.core.base.MasterView` (which workers' crash
times have passed each row's clock, kept by the engine as per-row state
and advanced only when a row's clock passes its next crash) plus the
losses and completions that became observable since the previous
decision, in the scalar view's ``(time, chunk_index)`` order.  A spec
advertises crash literacy with :attr:`KernelSpec.handles_crashes`; rows
whose sampled fault schedule contains a crash and whose kernel does
*not* handle crashes are routed back to the scalar engine by
``repro.sim.dynbatch`` rather than risking a divergent recovery
trajectory.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import types

import numpy as np

from repro.core.base import Dispatch

__all__ = [
    "ARRAY_OPS",
    "DISPATCH",
    "WAIT_FOR_COMPLETION",
    "DONE",
    "KernelSpec",
    "KernelStepContext",
    "LockstepKernel",
    "PlanCursor",
    "PlanRounds",
    "PoolKernel",
    "SCALAR_OPS",
    "drain_rows",
    "expand_rows",
    "first_idle",
    "lowest_bit",
    "pack_words",
    "word_bits",
    "word_count",
]

#: Per-row action codes written into the engine's ``action`` array.
DISPATCH = 0
WAIT_FOR_COMPLETION = 1
DONE = 2

#: ``_BITS[i]`` is the uint64 with only bit ``i`` set.
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


#: The scalar sources' ops: ``where`` is a conditional expression (both
#: branches are evaluated), ``fold`` adds a sequence left to right,
#: ``gather`` reads one position of a sequence and ``any`` is truthiness.
SCALAR_OPS = types.SimpleNamespace(
    min=min,
    max=max,
    where=lambda cond, a, b: a if cond else b,
    sqrt=math.sqrt,
    fold=functools.partial(functools.reduce, operator.add),
    gather=operator.getitem,
    any=bool,
)

#: The kernels' ops on (R,) rows; ``fold`` adds each row of an (R, n)
#: matrix left to right (``np.sum``'s pairwise order would not), and
#: ``gather`` reads position ``pos[r]`` of each row ``r`` of a matrix.
ARRAY_OPS = types.SimpleNamespace(
    min=np.minimum,
    max=np.maximum,
    where=np.where,
    sqrt=np.sqrt,
    fold=lambda rows: np.cumsum(rows, axis=1)[:, -1],
    gather=lambda rows, pos: rows[np.arange(len(rows)), pos],
    any=np.any,
)


def expand_rows(values, reps, dtype=None) -> np.ndarray:
    """Repeat one per-spec value per repetition row (``np.repeat`` sugar)."""
    return np.repeat(np.asarray(values, dtype=dtype), reps, axis=0)


def word_count(n_max: int) -> int:
    """Words per row of a worker set over ``n_max`` workers."""
    return -(-n_max // 64)


def pack_words(mask: np.ndarray) -> np.ndarray:
    """An ``(R, n)`` boolean worker mask as ``(R, word_count(n))`` words."""
    rows, n = mask.shape
    out = np.zeros((rows, word_count(n) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(mask, axis=1, bitorder="little")
    return out.view("<u8")


def word_bits(workers: np.ndarray):
    """``(word, bit)`` per worker: its word's index within the row and
    the uint64 with only its bit set."""
    return workers >> 6, _BITS[workers & 63]


def lowest_bit(words: np.ndarray):
    """Row-wise lowest set bit of ``(R, W)`` words, and whether any is set.

    Returns ``(index, any_set)``; ``index`` is 0 on rows with no bit set.
    The isolated low bit ``x & -x`` is a power of two, exact in float64,
    so :func:`numpy.frexp`'s exponent is its index plus one (this avoids
    ``np.bitwise_count``, which needs NumPy 2).
    """
    if words.shape[1] == 1:
        word, base = words[:, 0], 0
    else:
        wi = (words != 0).argmax(axis=1)
        word, base = words[np.arange(len(words)), wi], wi * 64
    _, exp = np.frexp((word & -word).astype(np.float64))
    return base + np.maximum(exp - 1, 0), word != 0


def first_idle(idle: np.ndarray, exclude: "np.ndarray | None" = None):
    """Row-wise lowest-index idle worker, and whether the row has one.

    ``idle`` holds each row's idle workers as words; a worker counts
    unless it is also set in ``exclude`` (crashed workers, or workers
    without a planned chunk).  Returns ``(worker, any_idle)``; ``worker``
    is 0 on rows without an idle worker.  This is the
    ``(pending_chunks, pending_work, index)`` minimum at lookahead 1 (see
    the module docstring).
    """
    return lowest_bit(idle if exclude is None else idle & ~exclude)


def drain_rows(idle: np.ndarray, real: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The ``candidates`` rows with a chunk still pending on a real worker.

    ``real`` holds each row's real (unpadded) workers as words.
    """
    return candidates & ((real & ~idle) != 0).any(axis=1)


class PlanRounds:
    """Per-row cursor over precomputed plan rounds (RUMR's phase 1).

    Holds each row's dense ``(rounds, n_max)`` size plan, the current
    round's availability as worker words, the number of chunks left in
    it, and the round cursor.  :meth:`take` dispatches one chunk per
    given row — the lowest-index worker with a chunk left in the row's
    round, or, for out-of-order rows, the lowest-index such worker that
    is idle — and reloads the next round only for rows whose round just
    emptied.  Plan rounds are never empty, so a reload always yields a
    chunk; one trailing empty round lets a row step past its last round
    without a bounds check.
    """

    def __init__(self, specs, reps, n_max):
        m_max = max((len(s.rounds) for s in specs), default=0) + 1
        sizes = np.zeros((len(specs), m_max, n_max))
        for i, s in enumerate(specs):
            for j, row in enumerate(s.rounds):
                sizes[i, j, : s.n] = row
        self._sizes = np.repeat(sizes, reps, axis=0)
        self.num_rounds = expand_rows([len(s.rounds) for s in specs], reps, np.int64)
        self.cursor = np.zeros(len(self.num_rounds), dtype=np.int64)
        first = self._sizes[:, 0] > 0.0
        self._avail = pack_words(first)
        self._left = first.sum(axis=1)

    @property
    def active(self) -> np.ndarray:
        """Rows with planned chunks still to dispatch."""
        return self.cursor < self.num_rounds

    def compact(self, keep) -> None:
        self._sizes = self._sizes[keep]
        self.num_rounds = self.num_rounds[keep]
        self.cursor = self.cursor[keep]
        self._avail = self._avail[keep]
        self._left = self._left[keep]

    def take(self, rows, idle, ooo=None):
        """Pop one planned chunk per row; returns ``(worker, size)``.

        ``idle`` holds every row's idle workers as words.  ``ooo`` selects
        the rows that prefer an idle worker within the round: per-row
        booleans, ``True`` for every row, or ``None`` for none.
        """
        avail = self._avail[rows]
        pick, _ = lowest_bit(avail)
        if ooo is not None:
            first, has_idle = lowest_bit(idle[rows] & avail)
            pick = np.where(has_idle & ooo, first, pick)
        m_max, n_max = self._sizes.shape[1:]
        sz = self._sizes.reshape(-1)[(rows * m_max + self.cursor[rows]) * n_max + pick]
        word, bit = word_bits(pick)
        self._avail.reshape(-1, copy=False)[rows * avail.shape[1] + word] &= ~bit
        left = self._left[rows] - 1
        self._left[rows] = left
        done = rows[left == 0]
        if done.size:
            cur = self.cursor[done] + 1
            self.cursor[done] = cur
            avail = self._sizes[done, cur] > 0.0
            self._avail[done] = pack_words(avail)
            self._left[done] = avail.sum(axis=1)
        return pick, sz


class PlanCursor:
    """One run's cursor over dense plan rounds — :class:`PlanRounds`' scalar twin.

    ``rounds`` are the same dense per-worker size rows (a worker holds a
    chunk in a round where its size is > 0; no round is empty).
    :meth:`take` dispatches the lowest-index worker with a chunk left in
    the current round, or, out of order, the lowest-index such worker
    the master observes idle.  A round's pending workers are listed when
    the cursor first reaches it, and the cursor steps past an emptied
    round only on the next :meth:`take` — so a run whose last planned
    chunk just left still counts as :attr:`active`, like a lockstep row
    between rounds.  Dispatches are labelled ``f"{label}{round}"``; the
    label and the round's row are looked up once, when the cursor
    reaches the round.
    """

    __slots__ = ("_rounds", "_label", "round", "_pending", "_row", "_phase")

    def __init__(self, rounds, label: str):
        self._rounds = rounds
        self._label = label
        self.round = 0
        self._pending: "list[int] | None" = None
        self._row = None
        self._phase = ""

    @property
    def active(self) -> bool:
        """True until :meth:`take` has stepped past the last round."""
        return self.round < len(self._rounds)

    def take(self, view, out_of_order: bool) -> "Dispatch | None":
        """Pop the next planned chunk, or ``None`` once the plan is spent."""
        pending = self._pending
        if not pending:
            if pending is not None:  # the current round is spent
                self.round += 1
                self._pending = None
            if self.round >= len(self._rounds):
                return None
            row = self._row = self._rounds[self.round]
            self._phase = f"{self._label}{self.round}"
            pending = self._pending = [i for i, s in enumerate(row) if s > 0.0]
        worker = pending[0]
        if out_of_order:
            for i in pending:
                if view.is_idle(i):
                    worker = i
                    break
        pending.remove(worker)
        return Dispatch(worker, self._row[worker], self._phase)


@dataclasses.dataclass(slots=True)
class KernelStepContext:
    """Observable fault/completion state for one decision step.

    Built by the lockstep engine for a merged kernel group whenever any
    of its rows carries a fault schedule or its kernel asked for
    completion notes.  All row indices are local to the group slice.

    ``crashed`` is the (R, n_max) boolean mask of workers whose crash
    time lies at or before the row's current clock — exactly the scalar
    view's ``crashed_workers()`` — ``crashed_words`` the same set as
    worker words, and ``n_crashed`` its (R,) row count; all three are
    engine state, ``None`` when no row of the batch can crash, and
    read-only to kernels.  ``losses`` lists newly observed lost
    chunks as ``(row, size)`` and ``notes`` newly observed completions
    as ``(row, time, worker, size)``; both are sorted by the scalar
    observation order ``(time, chunk_index)`` within each row, and each
    event is delivered exactly once across the run (cursor semantics,
    mirroring ``observed_losses`` / ``observed_completions``).
    """

    crashed: "np.ndarray | None" = None
    crashed_words: "np.ndarray | None" = None
    n_crashed: "np.ndarray | None" = None
    #: (R,) boolean — rows carrying any sampled fault schedule (the scalar
    #: view's ``faults_possible``); such rows drain their pending set
    #: before finishing because outstanding chunks may still be lost.
    fault_rows: "np.ndarray | None" = None
    losses: "list[tuple[int, float]]" = dataclasses.field(default_factory=list)
    notes: "list[tuple[int, float, int, float]]" = dataclasses.field(
        default_factory=list
    )


class KernelSpec:
    """One cell's decision-rule configuration, mergeable by ``group_key``.

    Produced by :meth:`repro.core.base.Scheduler.batch_kernel`.  Specs
    whose ``group_key`` match describe the same decision-rule *family*
    (identical code path, different parameters) and may be handed
    together to :meth:`make_kernel`, which expands them into per-row
    state — ``reps[i]`` consecutive rows per spec — padded to ``n_max``
    workers.
    """

    #: Hashable family identifier; equal keys merge into one kernel.
    group_key: tuple = ()
    #: Real worker count of this spec's platform.
    n: int = 0
    #: Whether the kernel reproduces the scalar source's crash-recovery
    #: trajectory.  Specs that leave this False have crash-bearing rows
    #: routed to the scalar engine by ``repro.sim.dynbatch``; non-crash
    #: faults (pause / slowdown / link spike) only shift observation
    #: times and need no kernel support at all.
    handles_crashes: bool = False
    #: Whether the kernel consumes completion notes
    #: (:attr:`KernelStepContext.notes`) even on fault-free rows —
    #: AdaptiveRUMR's online error estimator needs them.
    wants_notes: bool = False

    def make_kernel(
        self, specs: "list[KernelSpec]", reps: "list[int]", n_max: int
    ) -> "LockstepKernel":
        raise NotImplementedError

    def source(self):
        """This cell's scalar :class:`~repro.core.base.DispatchSource`.

        What :meth:`repro.core.base.Scheduler.create_source` returns for
        the run the spec is bound to: the scalar engines read the same
        binding the kernel is built from.
        """
        raise NotImplementedError

    def deferred_rows(self, crash_time: np.ndarray) -> "np.ndarray | None":
        """Rows the kernel cannot replay bitwise, given realized crashes.

        ``crash_time`` is this cell's ``(reps, n)`` slice of the fault
        plane (``inf`` = never).  The returned boolean mask selects rows
        the engine must hand to the scalar reference engine instead; the
        default defers every crash-bearing row when the spec lacks crash
        support and nothing otherwise.  Specs whose kernel covers *some*
        crash patterns override this to shrink the deferral to the
        genuinely inexpressible rows (see ``RUMRKernelSpec``).
        """
        if self.handles_crashes:
            return None
        return np.isfinite(crash_time).any(axis=1)


class LockstepKernel:
    """Per-row decision state for one merged group of cells."""

    def decide(
        self,
        idle: np.ndarray,
        action: np.ndarray,
        worker: np.ndarray,
        size: np.ndarray,
        mask: "np.ndarray | None" = None,
        ctx: "KernelStepContext | None" = None,
    ) -> None:
        """Write each row's next decision into the output arrays.

        ``idle`` holds each row's observed idle workers (no chunk
        pending) as (R, W) worker words; ``action``/``worker``/``size`` are (R,) outputs.  With ``mask``
        (boolean (R,)), only masked rows are decided and mutated — used
        by composite kernels (RUMR's phase-2 tail) to delegate a row
        subset; rows outside the mask are left untouched.  ``ctx``
        carries crash state and newly observed losses / completions when
        the engine simulates fault cells (or the spec set
        :attr:`KernelSpec.wants_notes`); fault-oblivious kernels may
        ignore it.  Rows whose workload is exhausted write :data:`DONE`
        and must keep doing so on every later call (finished rows stay
        frozen).
        """
        raise NotImplementedError

    def compact(self, keep: np.ndarray) -> None:
        """Drop every row not in ``keep`` (sorted local row indices).

        The lockstep engine periodically compacts finished rows out of
        its state so late iterations stop paying for them; kernels must
        re-index all per-row state the same way.  Kernels that do not
        implement this simply opt their groups out of compaction.
        """
        raise NotImplementedError


class PoolKernel(LockstepKernel):
    """The lockstep step of a self-scheduled pool: FSC and both factorings.

    Every row holds a pool of undispatched work and serves the
    lowest-index idle live worker; subclasses supply only the size rule
    (:meth:`_sizes`).  :meth:`decide` mirrors the scalar pool rule
    (:class:`~repro.core.factoring.PoolSource`) step for step: newly
    observed losses rejoin the pool in observation order, a drained pool
    finishes — or, on a fault row, waits while a chunk is still pending
    (it may yet be lost) — observed-crashed workers stop being
    candidates, a row whose workers have all crashed finishes
    undeliverable, a row with no idle candidate waits, and a dispatching
    row's pool shrinks by ``max(0, remaining − size)``.  A kernel that
    ignores faults (FSC) passes ``ctx=None``.
    """

    def __init__(self, specs, reps, n_max):
        self._n = expand_rows([s.n for s in specs], reps, dtype=np.int64)
        self._real = pack_words(np.arange(n_max) < self._n[:, None])
        self._remaining = expand_rows([s.total_work for s in specs], reps, dtype=float)
        self._epsilon = expand_rows(
            [1e-12 * max(s.total_work, 1.0) for s in specs], reps, dtype=float
        )

    def compact(self, keep) -> None:
        self._n = self._n[keep]
        self._real = self._real[keep]
        self._remaining = self._remaining[keep]
        self._epsilon = self._epsilon[keep]

    def _sizes(self, disp, worker, n_live, crashed) -> np.ndarray:
        """Per-row chunk sizes; only the dispatching rows ``disp`` are read.

        ``worker`` holds each row's candidate, ``n_live`` its live worker
        count and ``crashed`` the engine's crash mask (``None`` when no
        row has a crash).  Per-row rule state may advance on ``disp``
        rows only.
        """
        raise NotImplementedError

    def decide(self, idle, action, worker, size, mask=None, ctx=None):
        n_crashed = None
        if ctx is not None:
            if ctx.losses:
                # ``add.at`` adds a repeated row's losses left to right, in
                # list order: the scalar pool's ``+=`` sequence.
                rows, sizes = zip(*ctx.losses)
                np.add.at(self._remaining, np.asarray(rows), sizes)
            n_crashed = ctx.n_crashed
        fin = self._remaining <= self._epsilon
        if mask is None:
            live = ~fin
        else:
            live = mask & ~fin
            fin = mask & fin
        drain = None
        if ctx is not None and ctx.fault_rows is not None:
            drain = drain_rows(idle, self._real, fin & ctx.fault_rows)
            fin = fin & ~drain
        crashed = exclude = None
        n_live = self._n
        if n_crashed is not None and n_crashed.any():
            crashed, exclude = ctx.crashed, ctx.crashed_words
            n_live = self._n - n_crashed
            dead = live & (n_live == 0)
            fin = fin | dead
            live = live & ~dead
        w, has_idle = first_idle(idle, exclude)
        disp = live & has_idle
        wait = live & ~has_idle
        if drain is not None:
            wait = wait | drain
        # ``putmask`` writes masked rows about twice as fast as a boolean
        # index assignment.
        np.putmask(action, fin, DONE)
        np.putmask(action, wait, WAIT_FOR_COMPLETION)
        np.putmask(action, disp, DISPATCH)
        np.putmask(worker, disp, w)
        sz = self._sizes(disp, w, n_live, crashed)
        np.putmask(size, disp, sz)
        np.putmask(self._remaining, disp, np.maximum(0.0, self._remaining - sz))
