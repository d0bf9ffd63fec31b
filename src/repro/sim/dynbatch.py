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
   realized completion time has passed the row's clock, decrementing
   the pending chunk counts.  Kernels need no pending *work*: every
   lockstep dispatch goes to a worker with zero pending chunks, whose
   pending work is exactly ``0.0`` (see :mod:`repro.core.lockstep`).
2. **Contexts.**  Advance the crash state of rows whose clock passed
   their next crash time, and collect the newly observable losses and
   completions each kernel group must see.
3. **Decide.**  The merged :class:`~repro.core.lockstep.LockstepKernel`
   fills per-row action/worker/size from the observed pending counts,
   using the exact scalar worker choice and size formulas.
4. **Retire.**  Rows that turned DONE are harvested; once half the rows
   have finished, the survivors are compacted to the front.
5. **Apply.**  Dispatching rows advance through the standard timeline
   arithmetic (link occupancy → arrival → FIFO compute start →
   completion, then the fault transforms), perturbed by each row's own
   pre-drawn factor columns at the row's own dispatch counter; waiting
   rows jump to their earliest outstanding completion; finished rows
   freeze.

The state is flat: every (row, worker) and (row, worker, slot) array is
C-contiguous, and each step gathers and scatters through one
``row * n_max + worker`` index into a 1-D alias of it rather than through
2-D or 3-D fancy indexing.  The per-worker queues are rings that only
hold outstanding chunks.

Equivalence contract (mirrors the static engine's): perturbation factors
come from the same two spawned streams per seed, consumed in dispatch
order as the one sequence :mod:`repro.errors.models` defines, so every
row equals the scalar engine **bitwise at every error** — same
decisions, same factors, same arithmetic.

Fault cells (:attr:`DynamicCell.faults`) run in the same pass.  Each
cell realizes all of its rows' schedules in one shot through
:meth:`~repro.errors.faults.FaultModel.sample_batch` — a
:class:`~repro.errors.faults.FaultPlane` of stacked crash / pause /
slowdown / spike arrays, bit-identical to sampling row by row from each
seed's third spawned stream (streams 0/1 keep their draws) — and the
scalar fault semantics become vectorized timeline transforms with the
same associativity: pause windows and slowdown onsets reshape the
effective compute duration (pause first, then slowdown), link spikes
add pre-drawn per-dispatch draws from each row's own fault stream, and
a chunk whose computation outlives its worker's crash is *lost* — it
leaves the pending set at ``max(crash_time, arrival)``, delivers no
work, and never extends the makespan.  Each transform runs only when
some row in the batch needs it, over the whole row block at once.
Crash state is engine state: a ``crashed`` (rows × workers) mask, a
per-row ``n_crashed`` count and a per-row ``next_crash`` time, updated
only for rows whose clock has passed ``next_crash`` — a wait jump that
crosses several crash times marks them all at once — and compacted with
the rest of the rows.  Kernels observe faults through a
:class:`~repro.core.lockstep.KernelStepContext`: that crash state plus
newly observed losses and completions in the scalar view's
``(time, chunk_index)`` order.  Every in-tree kernel family replays
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
from time import perf_counter

import numpy as np

from repro.core.base import DeadlockError, Scheduler
from repro.core.lockstep import (
    DISPATCH,
    DONE,
    PAD_PENDING,
    WAIT_FOR_COMPLETION,
    KernelStepContext,
    LockstepKernel,
)
from repro.errors.faults import FaultModel, FaultPlaneCache
from repro.errors.models import check_magnitude, make_error_model
from repro.platform.spec import PlatformSpec

# ``factor_stream`` stays importable here for span tracers that patch
# each engine's draw entry point (perfbench/layers.py).
from repro.sim.batch import factor_rows, factor_stream  # noqa: F401
from repro.sim.fastsim import simulate_fast

__all__ = [
    "BatchArena",
    "DynamicCell",
    "simulate_dynamic_cells",
]

#: Row cap per lockstep call: bounds peak memory (queues are dense
#: (rows × workers × capacity) arrays) while keeping calls wide enough
#: to amortize the per-iteration overhead.  At N = 50 workers and the
#: initial capacity of 8 slots the dense queues cost ~13 MB per float
#: array at this cap — wide enough that a paper-scale (platform × error)
#: sweep merges into a single pass per scheduler family.
MAX_ROWS = 4096

#: Initial factor-bank column capacity; grown by doubling on demand.
_INITIAL_COLUMNS = 160

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
        if not self.total_work > 0:
            raise ValueError(f"total_work must be > 0, got {self.total_work}")
        if len(self.seeds) == 0:
            raise ValueError("a cell needs at least one seed")


class BatchArena:
    """Reusable backing buffers for the lockstep engine's state arrays.

    A sweep makes many lockstep calls — one per merged batch per grid
    pass — and without reuse each call allocates ~20 dense arrays (the
    (rows × workers × capacity) queue slabs dominating) only to free
    them microseconds later.  The arena keeps one growable 1-D buffer
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
    Rows come from :func:`repro.sim.batch.factor_rows` over the shared
    per-seed stream cache, so the consumption is bit-identical to the
    scalar engine's chunk-order draws, and rows revisited by a later
    sweep reuse the already-drawn columns.  Rows with zero magnitude
    hold exact ones and touch no stream at all.
    """

    def __init__(self, seeds, sigmas, mode: str):
        self._mode = mode
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
        """Guarantee at least ``cols`` materialized columns."""
        have = self.comm.shape[1]
        if cols > have:
            target = max(cols, 2 * have, _INITIAL_COLUMNS)
            self.comm, self.comp = factor_rows(self._keys, target, self._mode)

    def gather(self, rows, cols):
        """``(comm, comp)`` factors of ``rows`` at column ``cols`` each."""
        flat = rows * self.comm.shape[1] + cols
        return self.comm.reshape(-1)[flat], self.comp.reshape(-1)[flat]


class _SpikeBank:
    """Pre-drawn per-dispatch link-spike uniforms, one column per dispatch.

    Column ``k`` of row ``r`` is the ``k``-th ``rng.random()`` call of row
    ``r``'s fault stream (positioned after the schedule draws), so the
    gathered draw matches the scalar engine's per-dispatch consumption
    bitwise — ``Generator.random(k)`` produces the same values as ``k``
    scalar calls, and the stream position never depends on outcomes.
    Rows without a retained generator hold exact ones, which never
    undercut a spike probability.
    """

    def __init__(self, fault_rngs):
        self._rngs = list(fault_rngs)
        self.draws = np.ones((len(self._rngs), 0))
        self._cols = 0

    @property
    def any_live(self) -> bool:
        return any(g is not None for g in self._rngs)

    def ensure(self, cols: int) -> None:
        """Guarantee at least ``cols`` materialized draw columns."""
        if cols <= self._cols:
            return
        target = max(cols, 2 * self._cols, _INITIAL_COLUMNS)
        draws = np.ones((len(self._rngs), target))
        draws[:, : self._cols] = self.draws
        for i, rng in enumerate(self._rngs):
            if rng is not None:
                draws[i, self._cols : target] = rng.random(target - self._cols)
        self.draws = draws
        self._cols = target

    def gather(self, rows, cols) -> np.ndarray:
        """The draws of ``rows`` at column ``cols`` each."""
        return self.draws.reshape(-1)[rows * self.draws.shape[1] + cols]

    def compact(self, keep) -> None:
        self._rngs = [self._rngs[int(r)] for r in keep]
        self.draws = self.draws[keep]


#: The fault plane's per-(row, worker) arrays: engine name, plane field,
#: and the neutral value that makes its transform a bitwise no-op.
_FAULT_FIELDS = (
    ("crash_t", "crash_time", np.inf),
    ("pause_s", "pause_start", 0.0),
    ("pause_l", "pause_len", 0.0),
    ("slow_s", "slow_start", 0.0),
    ("slow_f", "slow_factor", 1.0),
)

#: Per-(row, worker) platform parameters, in ``WorkerSpec`` field order.
_WORKER_FIELDS = ("S", "B", "cLat", "nLat", "tLat")


class _Lockstep:
    """One merged lockstep call: explicit state, advanced in stages.

    ``cells``/``specs`` must be ordered so that equal ``group_key`` runs
    are contiguous: each run becomes one kernel deciding a contiguous row
    slice, while the engine state (clocks, queues, dispatch arithmetic)
    is shared across all rows.  :meth:`run` repeats the stages of the
    module docstring until no row is active.

    Layout: every piece of per-row state is one arena array registered
    by :meth:`_state` — ``(R,)`` per row, ``(R, n_max)`` per (row,
    worker), ``(R, n_max, cap)`` per queue slot.  Each multi-axis array
    has a flat alias ``<name>_f``; a queue slot is ``pair * cap + slot``
    in it.  Compaction and queue growth replace arrays; both rebuild the
    aliases (:meth:`_reflatten`) so no alias outlives its array.

    Fault cells ride along: each cell's :class:`FaultPlane` comes from
    ``planes``, a :class:`~repro.errors.faults.FaultPlaneCache` that
    realizes it in one :meth:`~repro.errors.faults.FaultModel.sample_batch`
    call, and is block-copied into the batch's fault arrays (see
    :meth:`_realize_faults`).

    ``perf``, when given, is a mutable mapping accumulating engine
    counters across calls: ``rows_deferred_scalar`` plus wall-time
    buckets ``fault_sample_s`` / ``fault_defer_s`` and the per-kind
    transform times ``fault_crash_s`` / ``fault_pause_s`` /
    ``fault_slow_s`` / ``fault_spike_s``.

    ``row_tracers`` is one :class:`repro.obs.Tracer` (or ``None``) per
    repetition row; traced rows have their dispatch timelines extracted
    from the batch arrays as they are applied (phase labels are not
    available here — lockstep kernels carry no scheduler phase — so traced
    events use ``phase=""``, emit no ``round_boundary``, and fault rows
    emit no ``recovery_decision``).
    """

    def __init__(self, cells, specs, mode, row_tracers, arena, perf, planes) -> None:
        self.cells = cells
        self.row_tracers = row_tracers
        self.perf = perf
        self.timing = perf is not None
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
            self.seeds, np.repeat([c.error for c in cells], reps), mode
        )
        # Pad worker slots keep S = B = 1 and zero latencies.
        params = np.zeros((len(cells), n, len(_WORKER_FIELDS)))
        params[:, :, :2] = 1.0
        for ci, cell in enumerate(cells):
            for j, w in enumerate(cell.platform.workers):
                params[ci, j] = [getattr(w, name) for name in _WORKER_FIELDS]
        for k, name in enumerate(_WORKER_FIELDS):
            self._state(name, (rows, n))[:] = np.repeat(params[:, :, k], reps, axis=0)
        self._state("orig", (rows,), np.int64)[:] = np.arange(rows)
        cell_of_row = self._state("cell_of_row", (rows,), np.int64)
        cell_of_row[:] = np.repeat(np.arange(len(cells)), reps)
        kernel_of_row = self._state("kernel_of_row", (rows,), np.int64)
        for ki, (_, sl, _) in enumerate(self.kernels):
            kernel_of_row[sl] = ki
        self._state("active", (rows,), bool, fill=True)

        notes_mode = any(s.wants_notes for s in specs)
        self.fault_mode = False
        self.any_crash = self.any_pause = self.any_slow = False
        self.spikes = None
        self.deferred: list = []
        self.defer_makespans: dict = {}
        if any(c.faults is not None for c in cells):
            self._realize_faults(specs, planes, mode)
        # Losses exist only where crashes do: the collect machinery (chunk
        # indices, loss flags, per-step contexts) is needed for crash rows
        # and note-consuming kernels, not for pause/slowdown/spike rows —
        # those kernels' end-of-run drain is makespan-neutral without
        # losses, because the running makespan maximum is already complete
        # at dispatch-apply time.
        if self.any_crash:
            # Crash state at each row's clock, advanced in :meth:`contexts`
            # only for rows whose clock passed ``next_crash``.
            self._state("crashed", (rows, n), bool, fill=False)
            self._state("n_crashed", (rows,), np.int64)
            self._state("next_crash", (rows,))[:] = self.crash_t.min(axis=1)
        self.collect = self.any_crash or notes_mode
        self.need_mask = bool(self.deferred)
        # Per-kind fault-transform wall time, billed to ``perf`` at the end.
        self.fault_s = dict.fromkeys(
            ("fault_crash_s", "fault_pause_s", "fault_slow_s", "fault_spike_s"), 0.0
        )

        # FIFO queues of realized completions, one ring per (row, worker):
        # entry ``c`` (a running per-worker counter) sits in slot
        # ``c & (cap - 1)``, so slots are reused once popped and ``cap``
        # only has to hold the outstanding chunks, not every chunk ever
        # sent.  The head element is mirrored into a dense ``head_end``
        # array (inf for an empty queue) so the observe step never
        # gathers from the slot arrays.
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
            # Sizes, chunk indices and loss flags exist only for the
            # notes and losses: the sizes travel in them, the indices give
            # the scalar (time, chunk_index) event order, and loss flags
            # mark entries announcing a LossNote instead of a completion.
            self._state("q_size", (rows, n, cap))
            self._state("head_size", (rows, n))
            self._state("q_idx", (rows, n, cap), np.int64)
            self._state("q_lost", (rows, n, cap), bool, fill=False)
            self._state("head_idx", (rows, n), np.int64)
            self._state("head_lost", (rows, n), bool, fill=False)
            wants_row = self._state("wants_row", (rows,), bool, fill=False)
            for _, sl, wants in self.kernels:
                wants_row[sl] = wants

        # Pending chunk counts are maintained incrementally (integers, so
        # the running value is exact).  Padded worker slots report a huge
        # pending count so no kernel ever sees them idle.
        counts = self._state("counts", (rows, n), np.int64)
        n_per_row = np.repeat([c.platform.N for c in cells], reps)
        counts[np.arange(n)[None, :] >= n_per_row[:, None]] = PAD_PENDING
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
        """Copy every fault cell's plane into the batch's fault arrays.

        Each cell's schedules come from one batched draw from the per-seed
        third streams (streams 0/1 stay with the factor bank).  Neutral
        defaults (``inf`` crash, zero-length pause, factor-1 slowdown,
        zero spike probability) keep the transforms bitwise no-ops for
        clean rows sharing the batch, and each transform's any-flag
        records whether any row needs it at all, so a crash-only batch
        never pays for pause/slowdown arithmetic and vice versa.  Rows a
        spec reports through ``deferred_rows`` run on the scalar engine
        here and are frozen in the lockstep state.
        """
        rows, n_max, cells = self.rows, self.n, self.cells
        perf, timing = self.perf, self.timing
        t_sample = perf_counter() if timing else 0.0
        for name, _, neutral in _FAULT_FIELDS:
            self._state(name, (rows, n_max), fill=neutral)
        spike_p = self._state("spike_p", (rows,))
        spike_d = self._state("spike_d", (rows,))
        fault_row = self._state("fault_row", (rows,), bool, fill=False)
        self._state("mspan", (rows,))
        fault_rngs: list = [None] * rows
        deferred = self.deferred
        for ci, cell in enumerate(cells):
            if cell.faults is None:
                continue
            plane = planes.realize(cell.faults, cell.platform, cell.seeds)
            lo = int(self.offsets[ci])
            sl = slice(lo, int(self.offsets[ci + 1]))
            for name, field, _ in _FAULT_FIELDS:
                getattr(self, name)[sl, : cell.platform.N] = getattr(plane, field)
            spike_p[sl] = plane.spike_prob
            spike_d[sl] = plane.spike_delay
            fault_row[sl] = plane.fault_row
            for j, rng in enumerate(plane.rngs):
                if rng is not None:
                    fault_rngs[lo + j] = rng
            defer = specs[ci].deferred_rows(plane.crash_time)
            if defer is not None and defer.any():
                # Crash patterns this kernel cannot replay bitwise: the
                # rows run on the scalar engine (the reference semantics)
                # and their lockstep slots are frozen, with their fault
                # entries reset to neutral.
                for r in (lo + np.flatnonzero(defer)).tolist():
                    deferred.append(r)
                    fault_rngs[r] = None
                    self.bank.mute_row(r)
                    fault_row[r] = False
                    spike_p[r] = 0.0
                    for name, _, neutral in _FAULT_FIELDS:
                        getattr(self, name)[r] = neutral
        self.fault_mode = bool(fault_row.any())
        self.any_crash = bool(np.isfinite(self.crash_t).any())
        self.any_pause = bool((self.pause_l > 0.0).any())
        self.any_slow = bool((self.slow_f > 1.0).any())
        if any(g is not None for g in fault_rngs):
            self.spikes = _SpikeBank(fault_rngs)
        if timing:
            now_t = perf_counter()
            perf["fault_sample_s"] = perf.get("fault_sample_s", 0.0) + now_t - t_sample
            perf["rows_deferred_scalar"] = (
                perf.get("rows_deferred_scalar", 0) + len(deferred)
            )
            t_sample = now_t
        row_tracers = self.row_tracers
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
        if timing and deferred:
            perf["fault_defer_s"] = (
                perf.get("fault_defer_s", 0.0) + perf_counter() - t_sample
            )
        if row_tracers is not None:
            # Crash instants are known once the plane is realized; emitting
            # them upfront matches the scalar engine's stream (deferred rows
            # already emitted theirs inside simulate_fast).
            crash_t = self.crash_t
            for r in range(rows):
                tracer = row_tracers[r]
                if tracer is not None and fault_row[r]:
                    for wi in np.flatnonzero(np.isfinite(crash_t[r])).tolist():
                        tracer.emit(float(crash_t[r, wi]), "fault", wi, detail="crash")

    def _reflatten(self) -> None:
        """Rebind every ``<name>_f`` alias to its array's current buffer.

        ``copy=False`` makes a non-contiguous array fail loudly here
        instead of yielding an alias whose writes go nowhere.
        """
        for name in self._fields:
            array = getattr(self, name)
            if array.ndim > 1:
                setattr(self, name + "_f", array.reshape(-1, copy=False))

    # -- stages ---------------------------------------------------------------
    def observe(self) -> list:
        """Pop every queue head whose completion has passed its row's clock.

        Only rows whose earliest outstanding completion (``head_min``) is
        due take part.  One head per (row, worker) per pass, in FIFO
        order.  Only a pair that just popped can pop again, so passes
        after the first re-test just those pairs.
        Returns the popped entries (when the kernels need notes or
        losses) for :meth:`contexts`.
        """
        pops: list = []
        now = self.now
        rdy = np.flatnonzero(self.head_min <= now)
        if not rdy.size:
            return pops
        n, collect = self.n, self.collect
        cap = self.q_end.shape[2]
        block = self.head_end.take(rdy, axis=0)
        due = np.flatnonzero(block <= now.take(rdy)[:, None])
        lr, ww = np.divmod(due, n)
        rr = rdy[lr]
        f = rr * n + ww
        while f.size:
            self.counts_f[f] -= 1
            if collect:
                pops.append(
                    (rr, ww, self.head_end_f[f], self.head_size_f[f],
                     self.head_lost_f[f], self.head_idx_f[f])
                )
            nh = self.q_head_f[f] + 1
            self.q_head_f[f] = nh
            has_more = nh < self.q_tail_f[f]
            slot = f * cap + (nh & (cap - 1))
            head_end = np.where(has_more, self.q_end_f[slot], np.inf)
            self.head_end_f[f] = head_end
            if collect:
                self.head_size_f[f] = np.where(has_more, self.q_size_f[slot], 0.0)
                self.head_lost_f[f] = np.where(has_more, self.q_lost_f[slot], False)
                self.head_idx_f[f] = np.where(has_more, self.q_idx_f[slot], 0)
            again = np.flatnonzero(head_end <= now[rr])
            rr, ww, f = rr[again], ww[again], f[again]
        # Row minima over the worker axis run much faster on the
        # worker-major copy (a reduction over the long axis).
        block = self.head_end.take(rdy, axis=0)
        self.head_min[rdy] = np.ascontiguousarray(block.T).min(axis=0)
        return pops

    def contexts(self, pops) -> "list | None":
        """Each group's step context: what a scalar view would report.

        That is the crash state at the row's clock plus the losses and
        completions that just became observable, delivered in scalar
        ``(time, chunk_index)`` order per row.
        """
        if not self.collect:
            return None
        kernels = self.kernels
        if self.any_crash:
            self._advance_crashes()
        ctxs = [None] * len(kernels)
        for ki, (_, sl, wants) in enumerate(kernels):
            if self.fault_mode or wants:
                ctxs[ki] = KernelStepContext(
                    crashed=self.crashed[sl] if self.any_crash else None,
                    n_crashed=self.n_crashed[sl] if self.any_crash else None,
                    fault_rows=self.fault_row[sl] if self.fault_mode else None,
                )
        if not pops:
            return ctxs
        prr, pww, pend, psz, plost, pidx = (np.concatenate(p) for p in zip(*pops))
        sel = np.flatnonzero(plost | self.wants_row[prr])
        if not sel.size:
            return ctxs
        # Stable sort of the kept events: the same order as sorting every
        # pop and filtering afterwards.
        sel = sel[np.lexsort((pidx[sel], pend[sel], prr[sel]))]
        row = prr[sel]
        group = self.kernel_of_row[row]
        lost = plost[sel]
        for ki, (_, sl, _) in enumerate(kernels):
            ctx = ctxs[ki]
            if ctx is None:
                continue
            mine = group == ki
            if not mine.any():
                continue
            local = row - sl.start
            hit = mine & lost
            ctx.losses.extend(zip(local[hit].tolist(), psz[sel[hit]].tolist()))
            hit = mine & ~lost
            if hit.any():
                at = sel[hit]
                ctx.notes.extend(
                    zip(
                        local[hit].tolist(), pend[at].tolist(),
                        pww[at].tolist(), psz[at].tolist(),
                    )
                )
        return ctxs

    def _advance_crashes(self) -> None:
        """Mark every crash at or before its row's clock, due rows only.

        A row's clock never moves back, so its crashed set only grows,
        and nothing changes until the clock passes ``next_crash``.
        """
        due = np.flatnonzero(self.next_crash <= self.now)
        if due.size:
            crash_t = self.crash_t[due]
            hit = crash_t <= self.now[due, None]
            self.crashed[due] = hit
            self.n_crashed[due] = hit.sum(axis=1)
            self.next_crash[due] = np.where(hit, np.inf, crash_t).min(axis=1)

    def decide(self, ctxs) -> None:
        """Each family's kernel fills its contiguous row slice."""
        for ki, (kernel, sl, _) in enumerate(self.kernels):
            if self.group_alive[ki]:
                kernel.decide(
                    self.counts[sl],
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
        if self.fault_mode:
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
        for name in self._fields:
            array = getattr(self, name)
            array[:m] = array[keep]
            setattr(self, name, array[:m])
        self.bank.compact(keep)
        if self.row_tracers is not None:
            self.row_tracers = [self.row_tracers[r] for r in keep.tolist()]
        if self.spikes is not None:
            self.spikes.compact(keep)
            if not self.spikes.any_live:
                self.spikes = None
        if self.fault_mode:
            # Survivors may no longer need every transform (the rows that
            # did may all have finished).
            self.fault_mode = bool(self.fault_row.any())
            self.any_crash = self.any_crash and bool(np.isfinite(self.crash_t).any())
            self.any_pause = self.any_pause and bool((self.pause_l > 0.0).any())
            self.any_slow = self.any_slow and bool((self.slow_f > 1.0).any())
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
        timing = self.timing
        w = self.worker[disp]
        sz = self.size[disp]
        k = self.kdisp[disp]
        f = disp * self.n + w
        k_next = int(k.max()) + 1
        self.bank.ensure(k_next)
        comm, comp = self.bank.gather(disp, k)
        w_s, w_b, w_cl, w_nl, w_tl = (
            getattr(self, name + "_f")[f] for name in _WORKER_FIELDS
        )
        # chunk/inf is +0.0, matching link_time's infinite-bandwidth branch
        # bit for bit; multiplying by an exact 1.0 factor (the zero-error
        # rows) is also a bitwise no-op.
        link_eff = (w_nl + sz / w_b) * comm
        if self.spikes is not None:
            # Per-dispatch spike draws gathered from each row's pre-drawn
            # fault-stream columns at the row's dispatch counter; adding an
            # exact +0.0 to unspiked rows is a bitwise no-op.
            t0 = perf_counter() if timing else 0.0
            self.spikes.ensure(k_next)
            u = self.spikes.gather(disp, k)
            link_eff = link_eff + np.where(
                u < self.spike_p[disp], self.spike_d[disp], 0.0
            )
            if timing:
                self.fault_s["fault_spike_s"] += perf_counter() - t0
        now = self.now[disp]
        send_end = now + link_eff
        arrival = send_end + w_tl
        comp_start = np.maximum(arrival, self.busy_f[f])
        comp_eff = (w_cl + sz / w_s) * comp
        if self.any_pause or self.any_slow:
            comp_eff = self._stretch(f, comp_start, comp_eff)
        comp_end = comp_start + comp_eff
        self.busy_f[f] = comp_end

        lost = None
        end_q = comp_end
        if self.fault_mode:
            if self.any_crash:
                # A chunk outliving its worker's crash is lost: the master
                # observes it leave the pending set at max(crash, arrival)
                # and it contributes neither work nor makespan.  The busy
                # chain still advances (fictitious timeline), so every
                # later chunk on that worker is lost too — matching the
                # scalar engine.
                t0 = perf_counter() if timing else 0.0
                cw = self.crash_t_f[f]
                lost = comp_end > cw
                end_q = np.where(lost, np.maximum(cw, arrival), comp_end)
                self.mspan[disp] = np.maximum(
                    self.mspan[disp], np.where(lost, 0.0, comp_end)
                )
                if timing:
                    self.fault_s["fault_crash_s"] += perf_counter() - t0
            else:
                self.mspan[disp] = np.maximum(self.mspan[disp], comp_end)

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
            self.q_size_f[slot] = sz
            self.head_size_f[f] = np.where(was_empty, sz, self.head_size_f[f])
            self.q_idx_f[slot] = k
            self.head_idx_f[f] = np.where(was_empty, k, self.head_idx_f[f])
            if lost is not None:
                self.q_lost_f[slot] = lost
                self.head_lost_f[f] = np.where(was_empty, lost, self.head_lost_f[f])
        if self.row_tracers is not None:
            self._trace_dispatches(
                disp, w, k, sz, now, send_end, comp_start, comp_end, end_q, lost
            )
        self.q_tail_f[f] = tail + 1
        self.counts_f[f] += 1
        self.kdisp[disp] = k + 1
        self.now[disp] = send_end

    def _stretch(self, f, comp_start, comp_eff):
        """Pause window first, then slowdown onset.

        The scalar ``compute_duration`` order, with its exact
        associativity.
        """
        timing = self.timing
        if self.any_pause:
            t0 = perf_counter() if timing else 0.0
            ps = self.pause_s_f[f]
            pl = self.pause_l_f[f]
            in_window = (pl > 0.0) & (comp_start < ps + pl)
            if in_window.any():
                inside = in_window & (comp_start >= ps)
                straddle = in_window & ~inside & (comp_start + comp_eff > ps)
                comp_eff = np.where(
                    inside,
                    (ps + pl + comp_eff) - comp_start,
                    np.where(straddle, comp_eff + pl, comp_eff),
                )
            if timing:
                self.fault_s["fault_pause_s"] += perf_counter() - t0
        if self.any_slow:
            t0 = perf_counter() if timing else 0.0
            so = self.slow_s_f[f]
            sf = self.slow_f_f[f]
            slowed = (sf > 1.0) & (comp_start + comp_eff > so)
            if slowed.any():
                after = slowed & (comp_start >= so)
                partial = slowed & ~after
                done_part = so - comp_start
                comp_eff = np.where(
                    after,
                    comp_eff * sf,
                    np.where(
                        partial, done_part + (comp_eff - done_part) * sf, comp_eff
                    ),
                )
            if timing:
                self.fault_s["fault_slow_s"] += perf_counter() - t0
        return comp_eff

    def _grow_queues(self) -> None:
        """Double every ring's capacity, keeping each live entry reachable.

        A live entry ``c`` moves from slot ``c & (cap - 1)`` to
        ``c & (2 cap - 1)``, which is the same slot in one of the two
        halves; copying the old ring into both halves puts it there.  The
        other copy belongs to a counter that is not live, and is
        overwritten before it is ever read.
        """
        for name in self._fields:
            ring = getattr(self, name)
            if ring.ndim == 3:
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
            wi = int(w[pos])
            info = {"chunk": int(k[pos]), "size": float(sz[pos])}
            tracer.emit(float(now[pos]), "dispatch_start", wi, **info)
            tracer.emit(float(send_end[pos]), "dispatch_end", wi, **info)
            if lost is not None and lost[pos]:
                tracer.emit(float(end_q[pos]), "fault", wi, **info, detail="loss")
            else:
                tracer.emit(float(comp_start[pos]), "comp_start", wi, **info)
                tracer.emit(float(comp_end[pos]), "comp_end", wi, **info)

    # -- main loop ------------------------------------------------------------
    def run(self) -> list:
        """Step every row to completion; one makespan array per cell."""
        while self.n_active:
            ctxs = self.contexts(self.observe())
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
        if self.timing:
            for key, seconds in self.fault_s.items():
                self.perf[key] = self.perf.get(key, 0.0) + seconds
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
    that share a fault model, platform and seeds share one.
    """
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    cells = list(cells)
    outputs: list = [None] * len(cells)
    if arena is None:
        arena = BatchArena()
    if planes is None:
        planes = FaultPlaneCache()

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
                row_tracers = []
                for i, _ in batch:
                    cell_tracers = tracers[i]
                    if cell_tracers is None:
                        row_tracers.extend([None] * len(cells[i].seeds))
                    else:
                        row_tracers.extend(cell_tracers)
            results = _Lockstep(
                [cells[i] for i, _ in batch],
                [s for _, s in batch],
                mode,
                row_tracers,
                arena,
                perf,
                planes,
            ).run()
            for (i, _), res in zip(batch, results):
                outputs[i] = res
            batch, batch_rows = [], 0
        if idx is not None:
            batch.append((idx, spec))
            batch_rows += rows
    return outputs
