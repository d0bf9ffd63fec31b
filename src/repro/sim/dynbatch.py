"""Lockstep batch simulation of *dynamic* schedulers.

The static batch engine (:mod:`repro.sim.batch`) collapses a repetition
axis because the dispatch sequence is fixed up front.  Dynamic schedulers
have no fixed sequence — but the batchable ones (Factoring,
WeightedFactoring, FSC, RUMR, AdaptiveRUMR) *decide* from pure arithmetic
over master-observable state, so R independent runs can advance in
lockstep: one iteration evaluates every run's next action (dispatch /
wait / done) as row-wise NumPy operations, then applies all dispatches
and wait wake-ups at once.  Rows follow their own trajectories — each has
its own clock, queue state, and decision state — only the *stepping* is
shared.

Per iteration, each a method of one explicit state object
(:class:`_Lockstep`):

1. **Observe.**  Pop every per-(row, worker) FIFO queue head whose
   realized exit time has passed the row's clock; a pop that empties its
   queue sets the worker's bit in the row's ``idle`` word.  Kernels need
   no pending counts or pending *work*: every self-scheduled dispatch
   goes to an idle worker, whose pending work is exactly ``0.0`` (see
   :mod:`repro.core.lockstep`).
2. **Contexts.**  Advance the crash state of rows whose clock passed
   their next crash time, and deliver from the event log the losses and
   completions that became observable, the only events kernels read.
3. **Decide.**  The merged :class:`~repro.core.lockstep.LockstepKernel`
   fills per-row action/worker/size from the idle words, using the
   exact scalar worker choice and size formulas.
4. **Retire.**  Rows that turned DONE are harvested; once half the rows
   have finished, the survivors are compacted to the front.
5. **Apply.**  Dispatching rows advance through the standard timeline
   arithmetic (link occupancy → arrival → FIFO compute start →
   completion, with the fault stack's transforms), perturbed by each
   row's own pre-drawn factor columns at the row's own dispatch
   counter; waiting rows jump to their earliest outstanding completion;
   finished rows freeze.

The state is flat: every (row, worker) and (row, worker, slot) array is
C-contiguous, and each step gathers and scatters through one
``row * n_max + worker`` index into an alias of it rather than through
2-D or 3-D fancy indexing.  The engine keeps only what kernels read and
what the timeline arithmetic needs: the per-worker queues are rings of
exit times that only hold outstanding chunks (they serve idleness and
wake-ups), worker sets (idle, crashed) are bit words, and the events a
kernel observes — every lost chunk, and every chunk of a row whose
kernel wants completion notes — sit in one log of outstanding events.

Equivalence contract (mirrors the static engine's): perturbation factors
come from the same two spawned streams per seed, consumed in dispatch
order as the one sequence :mod:`repro.errors.models` defines, so every
row equals the scalar engine **bitwise at every error** — same
decisions, same factors, same arithmetic.

Fault cells (:attr:`DynamicCell.faults`) run in the same pass.  Each
cell's :class:`~repro.errors.faults.FaultPlane` is copied into the
call's :class:`~repro.errors.faults.FaultStack`, which applies the
scalar fault semantics to each dispatch batch (duration stretch, link
spikes, and the loss rule: a lost chunk leaves the pending set at its
loss time, delivers no work, and never extends the makespan).
Crash state is engine state: a ``crashed`` (rows × workers) mask, the
same set as ``crashed_words``, a per-row ``n_crashed`` count and a
per-row ``next_crash`` time, updated only for rows whose clock has
passed ``next_crash`` — a wait jump that crosses several crash times
marks them all — and compacted with the rest of the rows.  Kernels
observe faults through a :class:`~repro.core.lockstep.KernelStepContext`:
that crash state plus newly observed losses and completions in the
scalar view's ``(time, chunk_index)`` order.  Every in-tree kernel family replays
crash recovery in lockstep; the exception path is
:meth:`~repro.core.lockstep.KernelSpec.deferred_rows`, through which a
spec routes the rare crash patterns it cannot express (e.g. RUMR's
replan-from-scratch on a crash at ``t = 0``) to the scalar engine
*inside the same call* — trivially bit-identical — so callers may route
every cell of a fault grid here without inspecting the draws.

Cells from *different* platforms, error levels, and scheduler parameters
are merged into shared calls — grouped by kernel family and padded to a
common worker count — because lockstep efficiency comes from row count:
the per-iteration NumPy overhead is amortized over every row that is
still running.  A :class:`BatchArena` lets consecutive calls reuse the
dense state buffers instead of reallocating them, and a
:class:`~repro.errors.faults.FaultPlaneCache` lets a sweep realize each
fault plane once for every algorithm of a cell.  Only the
truncated-normal (``"normal"``/``"none"``) error model is supported;
other kinds stay on the scalar engine.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.base import DeadlockError, Scheduler
from repro.core.lockstep import (
    DISPATCH,
    DONE,
    WAIT_FOR_COMPLETION,
    KernelStepContext,
    LockstepKernel,
    pack_words,
    word_bits,
    word_count,
)
from repro.errors.faults import FaultModel, FaultPlaneCache, FaultStack
from repro.errors.models import check_magnitude, make_error_model
from repro.obs.events import chunk_events, crash_events
from repro.platform.spec import PlatformSpec

from repro.sim.batch import MIN_DRAW, FactorStreams, check_tracers, factor_rows, factor_stream
from repro.sim.fastsim import simulate_fast

__all__ = [
    "BatchArena",
    "DynamicCell",
    "simulate_dynamic_cells",
]

#: Row cap per lockstep call: bounds peak memory (the exit-time rings are
#: one dense (rows × workers × capacity) array) while keeping calls wide
#: enough to amortize the per-iteration overhead.  At N = 50 workers and
#: the initial capacity of 8 slots the ring costs ~13 MB at this cap —
#: wide enough that a paper-scale (platform × error) sweep merges into a
#: single pass per scheduler family.
MAX_ROWS = 4096

#: Initial per-(row, worker) ring capacity (a power of two); doubled when
#: one worker's outstanding chunks would overflow it.
_INITIAL_SLOTS = 8


@dataclasses.dataclass(frozen=True)
class DynamicCell:
    """One (platform, scheduler, error) cell and its repetition seeds.

    ``faults`` optionally injects a fault scenario: every repetition row
    samples its own schedule from the seed's third spawned stream,
    matching the scalar engine's contract.  Static schedulers are
    rejected: they replay a fixed plan through the static batch engine.
    """

    platform: PlatformSpec
    scheduler: Scheduler
    total_work: float
    error: float
    seeds: tuple
    faults: "FaultModel | None" = None

    def __post_init__(self) -> None:
        if self.scheduler.is_static:
            raise TypeError(
                f"{self.scheduler.name} is static, not batch-dynamic; run it "
                "through the static batch engine instead"
            )
        check_magnitude(self.error)
        if not 0 < self.total_work < math.inf:
            raise ValueError(f"total_work must be > 0, got {self.total_work}")
        if len(self.seeds) == 0:
            raise ValueError("a cell needs at least one seed")


class BatchArena:
    """Reusable backing buffers for the lockstep engine's state arrays.

    A sweep makes many lockstep calls — one per merged batch per grid
    pass — and without reuse each call allocates ~20 dense arrays (the
    (rows × workers × capacity) ring of exit times dominating) only to
    free them microseconds later.  The arena keeps one growable 1-D buffer
    per array role and hands out C-contiguous views of its leading
    prefix, re-initialized *in full* before use.  Contiguity holds
    whatever shape a previous call requested, so the engine may address
    every view through flat ``row * n_max + worker`` aliases, and calls
    through one arena are pure: results depend only on the call's
    arguments, never on what a previous call left behind (both
    property-tested in ``tests/properties/test_properties_dynbatch.py``).
    Compaction moves survivors to the front of these same views, so a
    call allocates no second copy of its state.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def take(self, name: str, shape: tuple, dtype=np.float64, fill=None) -> np.ndarray:
        """Return a C-contiguous ``shape`` view of buffer ``name``, refilled.

        The backing buffer is one flat array that only grows (to the
        largest element count ever requested), and every view is its
        leading prefix reshaped — contiguous whatever shapes earlier calls
        asked for, which the engine's flat ``row * n_max + worker``
        indexing relies on.  ``fill`` overwrites the whole view so no
        state leaks between calls.
        """
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self._buffers[name] = buf
        view = buf[:size].reshape(shape)
        if fill is not None:
            view[...] = fill
        return view


class _FactorBank:
    """Per-row (comm, comp) perturbation factor columns, fetched lazily.

    Column ``k`` of row ``r`` perturbs row ``r``'s ``k``-th dispatch.
    Rows come from the pass's :class:`~repro.sim.batch.FactorStreams`,
    so the consumption is bit-identical to the scalar engine's
    chunk-order draws, and streams another pass of the same sweep drew
    are reused, not redrawn.  Growth draws the live rows' streams to the
    new width (:func:`~repro.sim.batch.factor_stream`) and gathers only
    the new columns.  Rows with zero magnitude hold exact ones and touch
    no stream at all.
    """

    def __init__(self, seeds, sigmas, mode: str, streams: FactorStreams):
        self._mode = mode
        self._streams = streams
        self._keys: list = [
            (int(seed), float(sigma)) if sigma > 0.0 else None
            for seed, sigma in zip(seeds, sigmas)
        ]
        self.comm = self.comp = np.ones((len(self._keys), 0))

    def mute_row(self, row: int) -> None:
        """Stop drawing for one row (it is simulated elsewhere)."""
        self._keys[row] = None

    def compact(self, keep) -> None:
        """Drop every row not in ``keep`` (sorted row indices)."""
        self._keys = [self._keys[int(r)] for r in keep]
        self.comm = self.comm[keep]
        self.comp = self.comp[keep]

    def ensure(self, cols: int) -> None:
        """Guarantee at least ``cols`` materialized columns.

        The bank starts at :data:`~repro.sim.batch.MIN_DRAW` columns and
        grows by doubling.
        """
        have = self.comm.shape[1]
        if cols > have:
            target = max(cols, 2 * have, MIN_DRAW)
            live = list(dict.fromkeys(k for k in self._keys if k is not None))
            factor_stream(self._streams, live, target)
            comm, comp = factor_rows(
                self._keys, target, self._mode, self._streams, start=have
            )
            self.comm = np.concatenate([self.comm, comm], axis=1)
            self.comp = np.concatenate([self.comp, comp], axis=1)

    def gather(self, rows, cols):
        """``(comm, comp)`` factors of ``rows`` at column ``cols`` each."""
        flat = rows * self.comm.shape[1] + cols
        return self.comm.reshape(-1)[flat], self.comp.reshape(-1)[flat]


#: Per-(row, worker) platform parameters, in ``WorkerSpec`` field order:
#: the trailing axis of the engine's one ``wparams`` table.
_WORKER_FIELDS = ("S", "B", "cLat", "nLat", "tLat")

#: State arrays holding one ring slot per (row, worker, slot).
_RINGS = ("q_end",)

#: Columns of the event log, one row per outstanding observable event.
_LOG_ROW, _LOG_END, _LOG_IDX, _LOG_WORKER, _LOG_SIZE, _LOG_LOST = range(6)


class _Lockstep:
    """One merged lockstep call: explicit state, advanced in stages.

    ``cells``/``specs`` must be ordered so that equal ``group_key`` runs
    are contiguous: each run becomes one kernel deciding a contiguous row
    slice, while the engine state (clocks, queues, dispatch arithmetic)
    is shared across all rows.  :meth:`run` repeats the stages of the
    module docstring until no row is active.

    Layout: every piece of per-row state is one arena array registered
    by :meth:`_state` — ``(R,)`` per row, ``(R, W)`` worker words,
    ``(R, n_max)`` per (row, worker), the ``(R, n_max, 5)`` worker
    parameter table, ``(R, n_max, cap)`` per ring slot.  Each multi-axis
    array has an alias ``<name>_f`` indexed by ``row * n_max + worker``
    (``row * W + word`` for words); a ring slot is ``pair * cap + slot``
    in its fully flat alias.  Compaction and ring growth replace arrays;
    both rebuild the aliases (:meth:`_reflatten`) so no alias outlives
    its array.  The event log is not arena state: it holds only
    outstanding events, and compaction remaps its row indices.

    Fault cells ride along: each cell's :class:`FaultPlane` comes from
    ``planes``, a :class:`~repro.errors.faults.FaultPlaneCache` that
    realizes it in one :meth:`~repro.errors.faults.FaultModel.sample_batch`
    call, and is block-copied into :attr:`faults`, the call's
    :class:`~repro.errors.faults.FaultStack` (see :meth:`_realize_faults`).

    ``perf``, when given, is a mutable mapping the fault stack bills its
    counters into across calls (see
    :class:`~repro.errors.faults.FaultStack`).

    ``row_tracers`` is one :class:`repro.obs.Tracer` (or ``None``) per
    repetition row.  Traced rows lower their crash plans and dispatches
    through the scalar engines' :func:`~repro.obs.events.crash_events` and
    :func:`~repro.obs.events.chunk_events`, reading timelines from the
    batch arrays as they are applied.  Kernels carry no scheduler phase,
    so rows use ``phase=""`` and emit no decision events.
    """

    def __init__(
        self, cells, specs, mode, row_tracers, arena, perf, planes, streams
    ) -> None:
        self.cells = cells
        self.row_tracers = row_tracers
        self.arena = arena
        self._fields: list = []
        reps = [len(c.seeds) for c in cells]
        self.offsets = np.cumsum([0] + reps)
        rows = self.rows = int(self.offsets[-1])
        n = self.n = max(c.platform.N for c in cells)

        # (kernel, row slice, wants_notes) per contiguous group-key run.
        self.kernels = []
        i = 0
        while i < len(cells):
            j = i
            while j < len(cells) and specs[j].group_key == specs[i].group_key:
                j += 1
            self.kernels.append(
                (
                    specs[i].make_kernel(specs[i:j], reps[i:j], n),
                    slice(int(self.offsets[i]), int(self.offsets[j])),
                    specs[i].wants_notes,
                )
            )
            i = j

        self.seeds = [s for c in cells for s in c.seeds]
        self.bank = _FactorBank(
            self.seeds, np.repeat([c.error for c in cells], reps), mode, streams
        )
        # Pad worker slots keep S = B = 1 and zero latencies.
        params = np.zeros((len(cells), n, len(_WORKER_FIELDS)))
        params[:, :, :2] = 1.0
        for ci, cell in enumerate(cells):
            for j, w in enumerate(cell.platform.workers):
                params[ci, j] = [getattr(w, name) for name in _WORKER_FIELDS]
        self._state("wparams", (rows, n, len(_WORKER_FIELDS)))[:] = np.repeat(
            params, reps, axis=0
        )
        self._state("orig", (rows,), np.int64)[:] = np.arange(rows)
        cell_of_row = self._state("cell_of_row", (rows,), np.int64)
        cell_of_row[:] = np.repeat(np.arange(len(cells)), reps)
        kernel_of_row = self._state("kernel_of_row", (rows,), np.int64)
        for ki, (_, sl, _) in enumerate(self.kernels):
            kernel_of_row[sl] = ki
        self._state("active", (rows,), bool, fill=True)

        notes_mode = any(s.wants_notes for s in specs)
        # Worker sets are bit words (``repro.core.lockstep``), W per row.
        words = self.words = word_count(n)
        self.faults = FaultStack(rows, n, alloc=arena.take, perf=perf)
        self.deferred: list = []
        self.defer_makespans: dict = {}
        if any(c.faults is not None for c in cells):
            self._realize_faults(specs, planes, mode)
        # Losses exist only where crashes do: the event log and per-step
        # contexts are needed for crash rows and note-consuming kernels,
        # not for pause/slowdown/spike rows — those kernels' end-of-run
        # drain is makespan-neutral without losses, because the running
        # makespan maximum is already complete at dispatch-apply time.
        if self.faults.any_crash:
            # Crash state at each row's clock, as a mask (for the kernels'
            # survivor arithmetic) and as words (for their worker choice),
            # advanced in :meth:`contexts` only for rows whose clock passed
            # ``next_crash``.  Each row's crash times are sorted once, with
            # a trailing ``inf``, so ``n_crashed`` is also the cursor of the
            # next crash.
            crash_time = self.faults.crash_time
            order = np.argsort(crash_time, axis=1, kind="stable")
            self._state("crash_order", (rows, n), np.int32)[:] = order
            crash_sorted = self._state("crash_sorted", (rows, n + 1), fill=np.inf)
            crash_sorted[:, :n] = np.take_along_axis(crash_time, order, axis=1)
            self._state("crashed", (rows, n), bool, fill=False)
            self._state("crashed_words", (rows, words), np.uint64, fill=0)
            self._state("n_crashed", (rows,), np.int64)
            self._state("next_crash", (rows,))[:] = crash_sorted[:, 0]
        self.collect = self.faults.any_crash or notes_mode
        self.need_mask = bool(self.deferred)

        # FIFO queues of realized completion (or loss) times, one ring per
        # (row, worker): entry ``c`` (a running per-worker counter) sits in
        # slot ``c & (cap - 1)``, so slots are reused once popped and
        # ``cap`` only has to hold the outstanding chunks, not every chunk
        # ever sent.  The head element is mirrored into a dense
        # ``head_end`` array (inf for an empty queue) so the observe step
        # never gathers from the slot arrays.  The rings serve idleness
        # and wake-ups only; what kernels observe travels in the log.
        cap = _INITIAL_SLOTS
        self._state("q_end", (rows, n, cap), fill=np.inf)
        self._state("q_head", (rows, n), np.int64)
        self._state("q_tail", (rows, n), np.int64)
        self._state("head_end", (rows, n), fill=np.inf)
        # Each row's earliest outstanding completion, maintained
        # incrementally so the observe step and wait wake-ups are O(rows)
        # instead of scanning the full (rows × workers) head matrix.
        self._state("head_min", (rows,), fill=np.inf)
        if self.collect:
            # The events kernels observe — every lost chunk, and every
            # chunk of a row whose kernel wants notes — logged at dispatch
            # as ``_LOG_*`` columns (indices are exact in float64) and
            # delivered by :meth:`contexts` once the row's clock reaches
            # the exit time.
            self.log = np.empty((0, 6))
            wants_row = self._state("wants_row", (rows,), bool, fill=False)
            for _, sl, wants in self.kernels:
                wants_row[sl] = wants

        # Idle workers (no chunk pending), as words: a pop that empties a
        # ring sets the worker's bit and a dispatch clears it.  Pad worker
        # slots never get a bit, so no kernel ever sees them idle.
        n_per_row = np.repeat([c.platform.N for c in cells], reps)
        self._state("idle", (rows, words), np.uint64)[:] = pack_words(
            np.arange(n)[None, :] < n_per_row[:, None]
        )
        self._state("busy", (rows, n))
        self._state("now", (rows,))
        self._state("kdisp", (rows,), np.int64)
        self._state("action", (rows,), np.int64, fill=DONE)
        self._state("worker", (rows,), np.int64)
        self._state("size", (rows,))

        # Liveness as integer counters (global and per kernel group): the
        # loop condition and the per-group decide guards then cost O(1)
        # instead of re-reducing the ``active`` mask every iteration.
        self.n_active = int(self.active.sum())
        self.group_alive = [int(self.active[sl].sum()) for _, sl, _ in self.kernels]
        self.final = np.empty(rows)
        self.can_compact = all(
            type(k).compact is not LockstepKernel.compact for k, _, _ in self.kernels
        )
        self._reflatten()

    # -- set-up ---------------------------------------------------------------
    def _state(self, name, shape, dtype=np.float64, fill=0):
        """Take ``name`` from the arena as per-row state, filled with ``fill``.

        Registered state is compacted with the rows, and every multi-axis
        array gets a flat alias ``<name>_f``.
        """
        array = self.arena.take(name, shape, dtype=dtype, fill=fill)
        setattr(self, name, array)
        self._fields.append(name)
        return array

    def _realize_faults(self, specs, planes, mode) -> None:
        """Copy every fault cell's plane into the fault stack.

        Each cell's schedules come from one batched draw from the per-seed
        third streams (streams 0/1 stay with the factor bank).  Rows a
        spec reports through ``deferred_rows`` run on the scalar engine
        here and are frozen in the lockstep state, their fault rows reset
        to neutral.
        """
        cells, faults, deferred = self.cells, self.faults, self.deferred
        with faults.timed("sample"):
            for ci, cell in enumerate(cells):
                if cell.faults is None:
                    continue
                plane = planes.realize(cell.faults, cell.platform, cell.seeds)
                lo = int(self.offsets[ci])
                faults.put(slice(lo, int(self.offsets[ci + 1])), plane)
                defer = specs[ci].deferred_rows(plane.crash_time)
                if defer is not None and defer.any():
                    # Crash patterns this kernel cannot replay bitwise: the
                    # scalar engine (the reference semantics) runs them.
                    for r in (lo + np.flatnonzero(defer)).tolist():
                        deferred.append(r)
                        self.bank.mute_row(r)
                        faults.clear_row(r)
            faults.seal()
        self._state("mspan", (self.rows,))
        row_tracers = self.row_tracers
        if deferred:
            with faults.timed("defer"):
                for r in deferred:
                    cell = cells[int(self.cell_of_row[r])]
                    result = simulate_fast(
                        cell.platform,
                        cell.total_work,
                        cell.scheduler,
                        make_error_model("normal", cell.error, mode=mode),
                        self.seeds[r],
                        collect_records=False,
                        faults=cell.faults,
                        tracer=None if row_tracers is None else row_tracers[r],
                    )
                    self.defer_makespans[r] = result.makespan
                    self.active[r] = False
        if row_tracers is not None:
            # Crash instants are known once the plane is realized; emitting
            # them upfront matches the scalar engine's stream (deferred rows
            # already emitted theirs inside simulate_fast).
            for r in range(self.rows):
                tracer = row_tracers[r]
                if tracer is not None and faults.fault_row[r]:
                    crash_events(tracer.emit, faults.crash_time[r].tolist())

    def _reflatten(self) -> None:
        """Rebind every ``<name>_f`` alias to its array's current buffer.

        An alias merges the (row, worker) axes into one; a ring is
        flattened entirely, so slot ``s`` of pair ``f`` is ``f * cap + s``.
        ``copy=False`` makes a non-contiguous array fail loudly here
        instead of yielding an alias whose writes go nowhere.
        """
        for name in self._fields:
            array = getattr(self, name)
            if array.ndim > 1:
                shape = (-1,) if name in _RINGS else (-1,) + array.shape[2:]
                setattr(self, name + "_f", array.reshape(shape, copy=False))

    # -- stages ---------------------------------------------------------------
    def observe(self) -> None:
        """Pop every queue head whose exit time has passed its row's clock.

        Only rows whose earliest outstanding exit (``head_min``) is due
        take part.  One head per (row, worker) per pass, in FIFO order.
        Only a pair that just popped can pop again, so passes after the
        first re-test just those pairs.  A pop that empties its ring
        marks the worker idle.
        """
        now = self.now
        rdy = np.flatnonzero(self.head_min <= now)
        if not rdy.size:
            return
        n = self.n
        cap = self.q_end.shape[2]
        # The ready rows' heads; ``pos`` indexes this copy, which is kept
        # in step with ``head_end`` for the row minima below.
        block = self.head_end.take(rdy, axis=0)
        block_f = block.reshape(-1)
        pos = np.flatnonzero(block <= now.take(rdy)[:, None])
        lr, ww = np.divmod(pos, n)
        rr = rdy[lr]
        f = rr * n + ww
        emptied = []
        while f.size:
            nh = self.q_head_f[f] + 1
            self.q_head_f[f] = nh
            has_more = nh < self.q_tail_f[f]
            slot = f * cap + (nh & (cap - 1))
            head_end = np.where(has_more, self.q_end_f[slot], np.inf)
            self.head_end_f[f] = head_end
            block_f[pos] = head_end
            emptied.append(f[~has_more])
            again = np.flatnonzero(head_end <= now[rr])
            rr, f, pos = rr[again], f[again], pos[again]
        # One row can empty several rings of one word in a pass.
        emptied = emptied[0] if len(emptied) == 1 else np.concatenate(emptied)
        rr, ww = np.divmod(emptied, n)
        word, bit = word_bits(ww)
        np.bitwise_or.at(self.idle_f, rr * self.words + word, bit)
        # Row minima over the worker axis run much faster on the
        # worker-major copy (a reduction over the long axis).
        self.head_min[rdy] = np.ascontiguousarray(block.T).min(axis=0)

    def contexts(self) -> "list | None":
        """Each group's step context: what a scalar view would report.

        That is the crash state at the row's clock plus the losses and
        completions that just became observable — the logged events whose
        exit time is at or before the row's clock — delivered in scalar
        ``(time, chunk_index)`` order per row and dropped from the log.
        A worker's exit times never decrease, so these are exactly the
        events its ring pops.
        """
        if not self.collect:
            return None
        kernels, faults = self.kernels, self.faults
        crash = faults.any_crash
        if crash:
            self._advance_crashes()
        ctxs = [None] * len(kernels)
        for ki, (_, sl, wants) in enumerate(kernels):
            if faults.any_fault or wants:
                ctxs[ki] = KernelStepContext(
                    crashed=self.crashed[sl] if crash else None,
                    crashed_words=self.crashed_words[sl] if crash else None,
                    n_crashed=self.n_crashed[sl] if crash else None,
                    fault_rows=faults.fault_row[sl] if faults.any_fault else None,
                )
        log = self.log
        if not len(log):
            return ctxs
        row = log[:, _LOG_ROW].astype(np.int64)
        due = log[:, _LOG_END] <= self.now[row]
        if not due.any():
            return ctxs
        # ``compress`` selects rows of a 2-D array about twice as fast as
        # a boolean index.
        self.log = log.compress(~due, axis=0)
        ev, row = log.compress(due, axis=0), row[due]
        order = np.lexsort((ev[:, _LOG_IDX], ev[:, _LOG_END], row))
        ev, row = ev[order], row[order]
        group = self.kernel_of_row[row]
        lost = ev[:, _LOG_LOST] != 0.0
        for ki, (_, sl, _) in enumerate(kernels):
            ctx = ctxs[ki]
            if ctx is None:
                continue
            mine = group == ki
            if not mine.any():
                continue
            local = row - sl.start
            hit = mine & lost
            ctx.losses.extend(zip(local[hit].tolist(), ev[hit, _LOG_SIZE].tolist()))
            hit = mine & ~lost
            if hit.any():
                ctx.notes.extend(
                    zip(
                        local[hit].tolist(),
                        ev[hit, _LOG_END].tolist(),
                        ev[hit, _LOG_WORKER].astype(np.int64).tolist(),
                        ev[hit, _LOG_SIZE].tolist(),
                    )
                )
        return ctxs

    def _advance_crashes(self) -> None:
        """Mark every crash at or before its row's clock, due rows only.

        A row's clock never moves back, so its crashed set only grows,
        and nothing changes until the clock passes ``next_crash``.
        """
        n, width = self.n, self.n + 1
        due = np.flatnonzero(self.next_crash <= self.now)
        # One crash per due row per pass, in crash-time order; a wait jump
        # past several crash times takes several passes.
        while due.size:
            c = self.n_crashed[due]
            w = self.crash_order_f[due * n + c]
            self.crashed_f[due * n + w] = True
            word, bit = word_bits(w)
            self.crashed_words_f[due * self.words + word] |= bit
            c += 1
            self.n_crashed[due] = c
            nxt = self.crash_sorted_f[due * width + c]
            self.next_crash[due] = nxt
            due = due[nxt <= self.now[due]]

    def decide(self, ctxs) -> None:
        """Each family's kernel fills its contiguous row slice."""
        for ki, (kernel, sl, _) in enumerate(self.kernels):
            if self.group_alive[ki]:
                kernel.decide(
                    self.idle[sl],
                    self.action[sl],
                    self.worker[sl],
                    self.size[sl],
                    mask=self.active[sl] if self.need_mask else None,
                    ctx=None if ctxs is None else ctxs[ki],
                )

    def retire(self) -> None:
        """Harvest rows that turned DONE; compact once half have finished.

        A finished row's state is final, so its makespan is taken the
        moment it turns DONE.  Rows finish at very different iteration
        counts, so once at most half the rows remain alive every per-row
        array — and each kernel's state — shrinks to the survivors, and
        late iterations stop paying full-width costs for dead rows.
        """
        done_rows = np.flatnonzero(self.active & (self.action == DONE))
        if not done_rows.size:
            return
        if self.faults.any_fault:
            self.final[self.orig[done_rows]] = self.mspan[done_rows]
        else:
            self.final[self.orig[done_rows]] = self.busy[done_rows].max(axis=1)
        self.active[done_rows] = False
        self.n_active -= int(done_rows.size)
        for ki in self.kernel_of_row[done_rows].tolist():
            self.group_alive[ki] -= 1
        if (
            self.n_active
            and self.can_compact
            and self.rows - self.n_active >= 128
            and self.n_active <= self.rows // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Keep only the live rows, in place and in their relative order.

        Pure re-indexing: every remaining trajectory is bitwise unchanged.
        Survivors move to the front of their own buffers (``a[:m] =
        a[keep]``), so compaction allocates no new state arrays.
        """
        keep = np.flatnonzero(self.active)
        m = int(keep.size)
        kernels = []
        start = 0
        for ki, (kernel, sl, wants) in enumerate(self.kernels):
            loc = keep[(keep >= sl.start) & (keep < sl.stop)] - sl.start
            kernel.compact(loc)
            kernels.append((kernel, slice(start, start + loc.size), wants))
            self.group_alive[ki] = int(loc.size)
            start += loc.size
        self.kernels = kernels
        if self.collect and len(self.log):
            new_row = np.full(self.rows, -1)
            new_row[keep] = np.arange(m)
            row = new_row[self.log[:, _LOG_ROW].astype(np.int64)]
            self.log = self.log.compress(row >= 0, axis=0)
            self.log[:, _LOG_ROW] = row[row >= 0]
        for name in self._fields:
            array = getattr(self, name)
            array[:m] = array[keep]
            setattr(self, name, array[:m])
        self.bank.compact(keep)
        if self.row_tracers is not None:
            self.row_tracers = [self.row_tracers[r] for r in keep.tolist()]
        self.faults.compact(keep)
        # Deferred rows were inactive from the start, so the survivors are
        # all live: the mask is no longer needed.
        self.need_mask = False
        self.rows = m
        self._reflatten()

    def apply(self) -> None:
        """Advance dispatching rows' timelines, then wake waiting rows."""
        disp = np.flatnonzero(self.active & (self.action == DISPATCH))
        if disp.size:
            self._dispatch(disp)
        waiting = np.flatnonzero(self.active & (self.action == WAIT_FOR_COMPLETION))
        if waiting.size:
            # Jump to the earliest outstanding completion (for fault rows
            # that includes pending loss announcements).
            wake = self.head_min[waiting]
            stuck = np.isinf(wake)
            if stuck.any():
                row = int(waiting[np.flatnonzero(stuck)[0]])
                cell = self.cells[int(self.cell_of_row[row])]
                raise DeadlockError(
                    f"{cell.scheduler.name}: WAIT with no outstanding chunk "
                    f"at t={self.now[row]}"
                )
            self.now[waiting] = wake

    def _dispatch(self, disp) -> None:
        """The standard timeline arithmetic for every dispatching row.

        Link occupancy → arrival → FIFO compute start → completion,
        perturbed by each row's own factor columns at its own dispatch
        counter, then reshaped by the fault transforms.
        """
        faults = self.faults
        w = self.worker[disp]
        sz = self.size[disp]
        k = self.kdisp[disp]
        f = disp * self.n + w
        self.bank.ensure(int(k.max()) + 1)
        comm, comp = self.bank.gather(disp, k)
        w_s, w_b, w_cl, w_nl, w_tl = self.wparams_f.take(f, axis=0).T
        # chunk/inf is +0.0, matching link_time's infinite-bandwidth branch
        # bit for bit; multiplying by an exact 1.0 factor (the zero-error
        # rows) is also a bitwise no-op.
        link_eff = (w_nl + sz / w_b) * comm
        if faults.any_spike:
            # Adding an exact +0.0 to unspiked rows is a bitwise no-op.
            link_eff = link_eff + faults.spikes(disp, k)
        now = self.now[disp]
        send_end = now + link_eff
        arrival = send_end + w_tl
        comp_start = np.maximum(arrival, self.busy_f[f])
        comp_end = comp_start + faults.stretch(f, comp_start, (w_cl + sz / w_s) * comp)
        self.busy_f[f] = comp_end

        lost = None
        end_q = comp_end
        if faults.any_fault:
            delivered = comp_end
            if faults.any_crash:
                # A lost chunk leaves the pending set at its loss time and
                # contributes neither work nor makespan.  The busy chain
                # still advances (fictitious timeline), so every later
                # chunk on that worker is lost too — matching the scalar
                # engine.
                lost, end_q = faults.loss_time(f, arrival, comp_end)
                delivered = np.where(lost, 0.0, comp_end)
            self.mspan[disp] = np.maximum(self.mspan[disp], delivered)

        tail = self.q_tail_f[f]
        head = self.q_head_f[f]
        if int((tail - head).max()) >= self.q_end.shape[2]:
            # The new entry would land on the ring's live head.
            self._grow_queues()
        cap = self.q_end.shape[2]
        slot = f * cap + (tail & (cap - 1))
        self.q_end_f[slot] = end_q
        was_empty = tail == head
        head_end = np.where(was_empty, end_q, self.head_end_f[f])
        self.head_end_f[f] = head_end
        # A dispatch can only lower a row's earliest completion, and only
        # through the head it may have just installed.
        self.head_min[disp] = np.minimum(self.head_min[disp], head_end)
        if self.collect:
            logged = self.wants_row[disp]
            if lost is not None:
                logged = logged | lost
            sel = np.flatnonzero(logged)
            if sel.size:
                entries = np.array(
                    [disp[sel], end_q[sel], k[sel], w[sel], sz[sel],
                     np.zeros(sel.size) if lost is None else lost[sel]],
                    dtype=float,
                )
                self.log = np.concatenate([self.log, entries.T])
        if self.row_tracers is not None:
            self._trace_dispatches(
                disp, w, k, sz, now, send_end, comp_start, comp_end, end_q, lost
            )
        self.q_tail_f[f] = tail + 1
        word, bit = word_bits(w)
        self.idle_f[disp * self.words + word] &= ~bit
        self.kdisp[disp] = k + 1
        self.now[disp] = send_end

    def _grow_queues(self) -> None:
        """Double every ring's capacity, keeping each live entry reachable.

        A live entry ``c`` moves from slot ``c & (cap - 1)`` to
        ``c & (2 cap - 1)``, which is the same slot in one of the two
        halves; copying the old ring into both halves puts it there.  The
        other copy belongs to a counter that is not live, and is
        overwritten before it is ever read.
        """
        for name in _RINGS:
            ring = getattr(self, name)
            setattr(self, name, np.concatenate([ring, ring], axis=2))
        self._reflatten()

    def _trace_dispatches(
        self, disp, w, k, sz, now, send_end, comp_start, comp_end, end_q, lost
    ) -> None:
        """Extract traced rows' dispatch timelines from the batch arrays."""
        for pos, row in enumerate(disp.tolist()):
            tracer = self.row_tracers[row]
            if tracer is None:
                continue
            chunk_events(
                tracer.emit, int(w[pos]), int(k[pos]), float(sz[pos]), "",
                float(now[pos]), float(send_end[pos]), None,
                float(comp_start[pos]), float(comp_end[pos]),
                float(end_q[pos]) if lost is not None and lost[pos] else None,
            )

    # -- main loop ------------------------------------------------------------
    def run(self) -> list:
        """Step every row to completion; one makespan array per cell."""
        while self.n_active:
            self.observe()
            ctxs = self.contexts()
            self.decide(ctxs)
            self.retire()
            if not self.n_active:
                break
            self.apply()
        # A clean row's makespan is its busiest worker's last completion
        # (pad slots stay 0); fault rows keep a running maximum over
        # *delivered* completions — a lost chunk's busy entry must not
        # count — which agrees bitwise with the busy max on rows that lost
        # nothing.  Deferred rows come from the scalar engine.
        for r in self.deferred:
            self.final[r] = self.defer_makespans[r]
        off = self.offsets
        return [self.final[off[i] : off[i + 1]].copy() for i in range(len(self.cells))]


def simulate_dynamic_cells(
    cells,
    mode: str = "multiply",
    max_rows: int = MAX_ROWS,
    tracers=None,
    arena=None,
    perf=None,
    planes=None,
    streams=None,
) -> list:
    """Simulate many dynamic cells, merging compatible ones per call.

    Cells are ordered group-major by their kernel spec's ``group_key``
    (decision-rule family) so each lockstep call — chunked to at most
    ``max_rows`` repetition rows — holds contiguous family runs, each
    driven by one merged kernel while the engine state is shared across
    all of them.  Fault cells mix freely with clean ones (see
    :class:`_Lockstep`).  Returns one makespan array per cell, in
    input order, each of shape ``(len(cell.seeds),)``.

    ``tracers``, when given, parallels ``cells``: each entry is ``None``
    or a sequence of one :class:`repro.obs.Tracer` (or ``None``) per seed
    of that cell (see :class:`_Lockstep`).  ``arena`` (a
    :class:`BatchArena`) lets a long-running caller — e.g. a whole-grid
    sweep — reuse the engine's state buffers across every call it makes.
    ``perf``, when given, is a mutable mapping accumulating the fault
    engine's counters across calls.  ``planes``, a
    :class:`~repro.errors.faults.FaultPlaneCache`, shares fault planes
    with other passes over the same cells; by default cells of this call
    that share a fault model, platform and seeds share one.  ``streams``,
    a :class:`~repro.sim.batch.FactorStreams`, does the same for factor
    streams; by default the store lives for this call only.
    """
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    cells = list(cells)
    check_tracers(cells, tracers)
    outputs: list = [None] * len(cells)
    if arena is None:
        arena = BatchArena()
    if planes is None:
        planes = FaultPlaneCache()
    if streams is None:
        streams = FactorStreams()

    groups: dict = {}
    for idx, cell in enumerate(cells):
        spec = cell.scheduler.batch_kernel(cell.platform, cell.total_work)
        groups.setdefault(spec.group_key, []).append((idx, spec))
    ordered = [pair for members in groups.values() for pair in members]

    batch: list = []
    batch_rows = 0
    for idx, spec in ordered + [(None, None)]:
        rows = len(cells[idx].seeds) if idx is not None else 0
        if batch and (idx is None or batch_rows + rows > max_rows):
            row_tracers = None
            if tracers is not None and any(tracers[i] for i, _ in batch):
                row_tracers = [
                    tracer
                    for i, _ in batch
                    for tracer in tracers[i] or [None] * len(cells[i].seeds)
                ]
            results = _Lockstep(
                [cells[i] for i, _ in batch],
                [s for _, s in batch],
                mode,
                row_tracers,
                arena,
                perf,
                planes,
                streams,
            ).run()
            for (i, _), res in zip(batch, results):
                outputs[i] = res
            batch, batch_rows = [], 0
        if idx is not None:
            batch.append((idx, spec))
            batch_rows += rows
    return outputs
