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

Per iteration:

1. **Observe.**  Pop every per-(row, worker) FIFO queue head whose
   realized completion time has passed the row's clock, accumulating
   completed chunk counts and work in pop order (bit-identical to the
   scalar view's prefix-sum difference).
2. **Decide.**  The merged :class:`~repro.core.lockstep.LockstepKernel`
   fills per-row action/worker/size from the observed pending state,
   using the exact scalar tie-breaks and size formulas.
3. **Apply.**  Dispatching rows advance through the standard timeline
   arithmetic (link occupancy → arrival → FIFO compute start →
   completion), perturbed by each row's own pre-drawn factor columns at
   the row's own dispatch counter; waiting rows jump to their earliest
   outstanding completion; finished rows freeze.

Equivalence contract (mirrors the static engine's): perturbation factors
come from the same two spawned streams per seed, consumed in dispatch
order, so at ``error = 0`` every row equals the scalar engine *exactly*
(bit for bit — same decisions, same arithmetic), and at ``error > 0``
results are distributionally identical, diverging bitwise only where
truncation resampling fires or a zero-cost transfer (``nLat = 0`` with
infinite bandwidth) skips a scalar draw.

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
Kernels observe faults through a
:class:`~repro.core.lockstep.KernelStepContext`: per-row crash masks
plus newly observed losses and completions in the scalar view's
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
dense state buffers instead of reallocating them.  Only the
truncated-normal (``"normal"``/``"none"``) error model is supported;
other kinds stay on the scalar engine.
"""

from __future__ import annotations

import dataclasses
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
from repro.errors.faults import FaultModel
from repro.errors.models import MIN_RATIO, make_error_model
from repro.platform.spec import PlatformSpec
from repro.sim.batch import factor_stream
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


@dataclasses.dataclass(frozen=True)
class DynamicCell:
    """One (platform, scheduler, error) cell and its repetition seeds.

    ``faults`` optionally injects a fault scenario: every repetition row
    samples its own schedule from the seed's third spawned stream,
    matching the scalar engine's contract.  The scheduler must declare
    ``batch_supports_faults`` for such cells.
    """

    platform: PlatformSpec
    scheduler: Scheduler
    total_work: float
    error: float
    seeds: tuple
    faults: "FaultModel | None" = None

    def __post_init__(self) -> None:
        if not self.scheduler.is_batch_dynamic:
            raise TypeError(
                f"{self.scheduler.name} is not batch-dynamic; run it through "
                "the scalar engine instead"
            )
        if self.faults is not None and not self.scheduler.batch_supports_faults:
            raise TypeError(
                f"{self.scheduler.name} does not declare batch fault support; "
                "route its fault cells through the scalar engine instead"
            )
        if self.error < 0:
            raise ValueError(f"error magnitude must be >= 0, got {self.error}")
        if not self.total_work > 0:
            raise ValueError(f"total_work must be > 0, got {self.total_work}")
        if len(self.seeds) == 0:
            raise ValueError("a cell needs at least one seed")


class BatchArena:
    """Reusable backing buffers for the lockstep engine's state arrays.

    A sweep makes many lockstep calls — one per merged batch per grid
    pass — and without reuse each call allocates ~20 dense arrays (the
    (rows × workers × capacity) queue slabs dominating) only to free
    them microseconds later.  The arena keeps one growable buffer per
    array role and hands out views that are re-initialized *in full*
    before use, so calls through one arena are pure: results depend only
    on the call's arguments, never on what a previous call left behind
    (property-tested in ``tests/properties/test_properties_dynbatch.py``).
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def take(self, name: str, shape: tuple, dtype=np.float64, fill=None) -> np.ndarray:
        """Return a ``shape``-sized view of buffer ``name``, refilled.

        The backing buffer grows monotonically (element-wise max of every
        requested shape); ``fill`` overwrites the whole view so no state
        leaks between calls.
        """
        buf = self._buffers.get(name)
        if buf is None or buf.ndim != len(shape) or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        elif any(have < want for have, want in zip(buf.shape, shape)):
            grown = tuple(max(have, want) for have, want in zip(buf.shape, shape))
            buf = np.empty(grown, dtype=dtype)
            self._buffers[name] = buf
        view = buf[tuple(slice(0, s) for s in shape)]
        if fill is not None:
            view[...] = fill
        return view


class _FactorBank:
    """Per-row (comm, comp) perturbation factor columns, fetched lazily.

    Column ``k`` of row ``r`` perturbs row ``r``'s ``k``-th dispatch.
    Rows draw from the shared per-seed stream cache
    (:func:`repro.sim.batch.factor_stream` — spawned exactly like
    :func:`repro.errors.rng.spawn_rngs`, block-drawn with mask
    resampling), so the consumption is bit-identical to the scalar
    engine's chunk-order draws whenever no resample fires, and rows
    revisited by a later sweep reuse the already-drawn columns.  Rows
    with zero magnitude hold exact ones and touch no stream at all.
    """

    def __init__(self, seeds, sigmas, mode: str, min_ratio: float):
        self._mode = mode
        self._min_ratio = min_ratio
        self._keys: list = [
            (int(seed), float(sigma)) if sigma > 0.0 else None
            for seed, sigma in zip(seeds, sigmas)
        ]
        rows = len(self._keys)
        self.comm = np.ones((rows, 0))
        self.comp = np.ones((rows, 0))
        self._cols = 0

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
        if cols <= self._cols:
            return
        target = max(cols, 2 * self._cols, _INITIAL_COLUMNS)
        rows = len(self._keys)
        comm = np.ones((rows, target))
        comp = np.ones((rows, target))
        for i, key in enumerate(self._keys):
            if key is None:
                continue
            stream = factor_stream(key[0], key[1], target, self._min_ratio)
            comm[i] = stream.comm[:target]
            comp[i] = stream.comp[:target]
        if self._mode == "divide":
            np.divide(1.0, comm, out=comm)
            np.divide(1.0, comp, out=comp)
        self.comm = comm
        self.comp = comp
        self._cols = target


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

    def compact(self, keep) -> None:
        self._rngs = [self._rngs[int(r)] for r in keep]
        self.draws = self.draws[keep]


def _worker_arrays(cells, reps, n_max):
    """Per-row padded (S, B, cLat, nLat, tLat) matrices."""
    shape = (len(cells), n_max)
    S = np.ones(shape)
    B = np.ones(shape)
    cl = np.zeros(shape)
    nl = np.zeros(shape)
    tl = np.zeros(shape)
    for i, cell in enumerate(cells):
        for j, w in enumerate(cell.platform.workers):
            S[i, j] = w.S
            B[i, j] = w.B
            cl[i, j] = w.cLat
            nl[i, j] = w.nLat
            tl[i, j] = w.tLat
    rep = lambda a: np.repeat(a, reps, axis=0)  # noqa: E731
    return rep(S), rep(B), rep(cl), rep(nl), rep(tl)


def _simulate_rows(
    cells, specs, mode: str, min_ratio: float, row_tracers=None, arena=None,
    perf=None,
) -> list:
    """Run one merged batch of cells to completion; makespans per cell.

    ``cells``/``specs`` must be ordered so that equal ``group_key`` runs
    are contiguous: each run becomes one kernel deciding a contiguous row
    slice, while the engine state (clocks, queues, dispatch arithmetic)
    is shared across all rows — one iteration advances every still-active
    row of every family.

    Fault cells ride along: each cell's :class:`FaultPlane` is realized
    in one :meth:`~repro.errors.faults.FaultModel.sample_batch` call and
    block-copied into the batch's fault arrays, whose neutral defaults
    (``inf`` crash, zero-length pause, factor-1 slowdown, zero spike
    probability) make the fault transforms bitwise no-ops for clean rows
    sharing the batch.  Rows the cell's kernel spec reports through
    :meth:`~repro.core.lockstep.KernelSpec.deferred_rows` are simulated
    by :func:`repro.sim.fastsim.simulate_fast` up front and excluded
    from the lockstep state.

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
    reps = [len(c.seeds) for c in cells]
    offsets = np.cumsum([0] + reps)
    rows = int(offsets[-1])
    n_max = max(c.platform.N for c in cells)
    if arena is None:
        arena = BatchArena()

    # (kernel, row slice, wants_notes) per contiguous group-key run.
    kernels = []
    i = 0
    while i < len(cells):
        j = i
        while j < len(cells) and specs[j].group_key == specs[i].group_key:
            j += 1
        kernels.append(
            (
                specs[i].make_kernel(specs[i:j], reps[i:j], n_max),
                slice(int(offsets[i]), int(offsets[j])),
                specs[i].wants_notes,
            )
        )
        i = j

    # Stacked (S, B, cLat, nLat, tLat) so each dispatch gathers all five
    # per-worker parameters in one fancy-index operation.
    wp = np.stack(_worker_arrays(cells, reps, n_max))
    seeds = [s for c in cells for s in c.seeds]
    sigmas = np.repeat([c.error for c in cells], reps)
    bank = _FactorBank(seeds, sigmas, mode, min_ratio)
    cell_of_row = np.repeat(np.arange(len(cells)), reps)

    # Realize every fault cell's schedules in one batched draw from the
    # per-seed third streams (streams 0/1 stay with the factor bank),
    # block-copied into the batch arrays.  Each transform's static
    # any-flag records whether any row needs it at all, so a crash-only
    # batch never pays for pause/slowdown arithmetic and vice versa.
    notes_mode = any(s.wants_notes for s in specs)
    fault_mode = False
    any_crash = any_pause = any_slow = spike_any = False
    fault_rngs: list = [None] * rows
    deferred: list = []
    defer_makespans: dict = {}
    timing = perf is not None
    active = arena.take("active", (rows,), dtype=bool, fill=True)
    t_sample = perf_counter() if timing else 0.0
    if any(c.faults is not None for c in cells):
        crash_t = arena.take("crash_t", (rows, n_max), fill=np.inf)
        pause_s = arena.take("pause_s", (rows, n_max), fill=0.0)
        pause_l = arena.take("pause_l", (rows, n_max), fill=0.0)
        slow_s = arena.take("slow_s", (rows, n_max), fill=0.0)
        slow_f = arena.take("slow_f", (rows, n_max), fill=1.0)
        spike_p = arena.take("spike_p", (rows,), fill=0.0)
        spike_d = arena.take("spike_d", (rows,), fill=0.0)
        fault_row = arena.take("fault_row", (rows,), dtype=bool, fill=False)
        mspan = arena.take("mspan", (rows,), fill=0.0)
        for ci, cell in enumerate(cells):
            if cell.faults is None:
                continue
            plane = cell.faults.sample_batch(cell.platform, cell.seeds)
            lo = int(offsets[ci])
            sl = slice(lo, int(offsets[ci + 1]))
            n = cell.platform.N
            crash_t[sl, :n] = plane.crash_time
            pause_s[sl, :n] = plane.pause_start
            pause_l[sl, :n] = plane.pause_len
            slow_s[sl, :n] = plane.slow_start
            slow_f[sl, :n] = plane.slow_factor
            spike_p[sl] = plane.spike_prob
            spike_d[sl] = plane.spike_delay
            fault_row[sl] = plane.fault_row
            for j, rng in enumerate(plane.rngs):
                if rng is not None:
                    fault_rngs[lo + j] = rng
            defer = specs[ci].deferred_rows(plane.crash_time)
            if defer is not None and defer.any():
                # Crash patterns this kernel cannot replay bitwise: the
                # rows run on the scalar engine (the reference
                # semantics) and their lockstep slots are frozen, with
                # their fault entries reset to neutral.
                for local in map(int, np.flatnonzero(defer)):
                    r = lo + local
                    deferred.append(r)
                    fault_rngs[r] = None
                    bank.mute_row(r)
                    fault_row[r] = False
                    crash_t[r] = np.inf
                    pause_s[r] = 0.0
                    pause_l[r] = 0.0
                    slow_s[r] = 0.0
                    slow_f[r] = 1.0
                    spike_p[r] = 0.0
        fault_mode = bool(fault_row.any())
        any_crash = bool(np.isfinite(crash_t).any())
        any_pause = bool((pause_l > 0.0).any())
        any_slow = bool((slow_f > 1.0).any())
        spike_any = any(g is not None for g in fault_rngs)
        if timing:
            now_t = perf_counter()
            perf["fault_sample_s"] = (
                perf.get("fault_sample_s", 0.0) + now_t - t_sample
            )
            perf["rows_deferred_scalar"] = (
                perf.get("rows_deferred_scalar", 0) + len(deferred)
            )
            t_sample = now_t
        for r in deferred:
            cell = cells[int(cell_of_row[r])]
            result = simulate_fast(
                cell.platform,
                cell.total_work,
                cell.scheduler,
                make_error_model("normal", cell.error, min_ratio=min_ratio, mode=mode),
                seeds[r],
                collect_records=False,
                faults=cell.faults,
                tracer=None if row_tracers is None else row_tracers[r],
            )
            defer_makespans[r] = result.makespan
            active[r] = False
        if timing and deferred:
            perf["fault_defer_s"] = (
                perf.get("fault_defer_s", 0.0) + perf_counter() - t_sample
            )
        if row_tracers is not None:
            # Crash instants are known once the plane is realized;
            # emitting them upfront matches the scalar engine's stream
            # (deferred rows already emitted theirs inside simulate_fast).
            for r in range(rows):
                tracer = row_tracers[r]
                if tracer is not None and fault_row[r]:
                    for wi in map(int, np.flatnonzero(np.isfinite(crash_t[r]))):
                        tracer.emit(float(crash_t[r, wi]), "fault", wi, detail="crash")
    # Losses exist only where crashes do: the collect machinery (chunk
    # indices, loss flags, per-step contexts) is needed for crash rows
    # and note-consuming kernels, not for pause/slowdown/spike rows —
    # those kernels' end-of-run drain is makespan-neutral without
    # losses, because the running makespan maximum is already complete
    # at dispatch-apply time.
    collect = any_crash or notes_mode
    spikes = _SpikeBank(fault_rngs) if spike_any else None
    need_mask = bool(deferred)
    t_crash = t_pause = t_slow = t_spike = 0.0

    # Append-only FIFO queues of realized completions, one per
    # (row, worker), with the head element mirrored into dense
    # ``head_end``/``head_size`` arrays (inf/0 for an empty queue) so the
    # observe step never gathers from the 3-d slot arrays.
    cap = 8
    q_end = arena.take("q_end", (rows, n_max, cap), fill=np.inf)
    q_size = arena.take("q_size", (rows, n_max, cap), fill=0.0)
    q_head = arena.take("q_head", (rows, n_max), dtype=np.int64, fill=0)
    q_tail = arena.take("q_tail", (rows, n_max), dtype=np.int64, fill=0)
    head_end = arena.take("head_end", (rows, n_max), fill=np.inf)
    head_size = arena.take("head_size", (rows, n_max), fill=0.0)
    # Each row's earliest outstanding completion, maintained incrementally
    # so the observe step and wait wake-ups are O(rows) instead of
    # scanning the full (rows × workers) head matrix every iteration.
    head_min = arena.take("head_min", (rows,), fill=np.inf)
    kernel_of_row = np.empty(rows, dtype=np.int64)
    for ki, (_, sl, _) in enumerate(kernels):
        kernel_of_row[sl] = ki
    if collect:
        # Chunk indices give the scalar (time, chunk_index) event order;
        # loss flags mark entries announcing a LossNote instead of a
        # completion.
        q_idx = arena.take("q_idx", (rows, n_max, cap), dtype=np.int64, fill=0)
        q_lost = arena.take("q_lost", (rows, n_max, cap), dtype=bool, fill=False)
        head_idx = arena.take("head_idx", (rows, n_max), dtype=np.int64, fill=0)
        head_lost = arena.take("head_lost", (rows, n_max), dtype=bool, fill=False)
        wants_row = np.zeros(rows, dtype=bool)
        for ki, (_, sl, wants) in enumerate(kernels):
            if wants:
                wants_row[sl] = True

    # Pending chunk counts are maintained incrementally (integers, so the
    # running value is exact); pending work stays a sent − done difference
    # because that is bitwise-identical to the scalar view's bookkeeping.
    counts = arena.take("counts", (rows, n_max), dtype=np.int64, fill=0)
    sent_work = arena.take("sent_work", (rows, n_max), fill=0.0)
    done_work = arena.take("done_work", (rows, n_max), fill=0.0)
    # Padded worker slots report a huge pending count so no kernel ever
    # selects them or sees them idle.
    n_per_row = np.repeat([c.platform.N for c in cells], reps)
    counts[np.arange(n_max)[None, :] >= n_per_row[:, None]] = PAD_PENDING

    busy = arena.take("busy", (rows, n_max), fill=0.0)
    now = arena.take("now", (rows,), fill=0.0)
    kdisp = arena.take("kdisp", (rows,), dtype=np.int64, fill=0)
    action = arena.take("action", (rows,), dtype=np.int64, fill=DONE)
    worker = arena.take("worker", (rows,), dtype=np.int64, fill=0)
    size = arena.take("size", (rows,), fill=0.0)
    # Reused difference buffer for the kernels' pending-work view.
    works = arena.take("works", (rows, n_max), fill=0.0)

    # Liveness as integer counters (global and per kernel group): the loop
    # condition and the per-group decide guards then cost O(1) instead of
    # re-reducing the ``active`` mask every iteration.
    n_active = int(active.sum())
    group_alive = [int(active[sl].sum()) for _, sl, _ in kernels]

    # Rows finish at very different iteration counts (platform size and
    # error level set the dispatch count), so late iterations would pay
    # full-width array ops for mostly-dead rows.  Instead each finished
    # row's makespan is harvested the moment it turns DONE (its state is
    # final), and once at most half the rows remain alive the engine
    # compacts every per-row array — and each kernel's state — down to
    # the survivors.  Compaction only re-indexes rows (their relative
    # order is preserved), so every remaining trajectory is bitwise
    # unchanged.
    final = np.empty(rows)
    orig = np.arange(rows)
    can_compact = all(
        type(k).compact is not LockstepKernel.compact for k, _, _ in kernels
    )

    while n_active:
        # 1. Observe: pop queue heads whose completion has passed each
        # row's clock — only rows whose earliest outstanding completion
        # (head_min) is due participate.  One head per (row, worker) per
        # pass, in FIFO order, so done_work accumulates exactly like the
        # scalar view's completed-work prefix sums.
        pops: list = []
        rdy = np.flatnonzero(head_min <= now)
        while rdy.size:
            ready = head_end[rdy] <= now[rdy, None]
            lr, ww = np.nonzero(ready)
            if lr.size == 0:
                break
            rr = rdy[lr]
            counts[rr, ww] -= 1
            done_work[rr, ww] += head_size[rr, ww]
            if collect:
                pops.append(
                    (
                        rr,
                        ww,
                        head_end[rr, ww],
                        head_size[rr, ww],
                        head_lost[rr, ww],
                        head_idx[rr, ww],
                    )
                )
            nh = q_head[rr, ww] + 1
            q_head[rr, ww] = nh
            has_more = nh < q_tail[rr, ww]
            idx = np.minimum(nh, q_end.shape[2] - 1)
            head_end[rr, ww] = np.where(has_more, q_end[rr, ww, idx], np.inf)
            head_size[rr, ww] = np.where(has_more, q_size[rr, ww, idx], 0.0)
            if collect:
                head_lost[rr, ww] = np.where(has_more, q_lost[rr, ww, idx], False)
                head_idx[rr, ww] = np.where(has_more, q_idx[rr, ww, idx], 0)
        if rdy.size:
            head_min[rdy] = head_end[rdy].min(axis=1)

        # 1b. Build each group's step context: the crash state a scalar
        # view would report at the row's clock, plus the losses and
        # completions that just became observable, delivered in scalar
        # (time, chunk_index) order per row.
        ctxs = None
        if collect:
            crashed_now = (crash_t <= now[:, None]) if any_crash else None
            ctxs = [None] * len(kernels)
            for ki, (_, sl, wants) in enumerate(kernels):
                if fault_mode or wants:
                    ctxs[ki] = KernelStepContext(
                        crashed=None if crashed_now is None else crashed_now[sl],
                        fault_rows=None if not fault_mode else fault_row[sl],
                    )
            if pops:
                prr = np.concatenate([p[0] for p in pops])
                pww = np.concatenate([p[1] for p in pops])
                pend = np.concatenate([p[2] for p in pops])
                psz = np.concatenate([p[3] for p in pops])
                plost = np.concatenate([p[4] for p in pops])
                pidx = np.concatenate([p[5] for p in pops])
                keep = plost | wants_row[prr]
                if keep.any():
                    order = np.lexsort((pidx, pend, prr))
                    for pos in order[keep[order]]:
                        row = int(prr[pos])
                        ki = int(kernel_of_row[row])
                        ctx = ctxs[ki]
                        if ctx is None:
                            continue
                        local = row - kernels[ki][1].start
                        if plost[pos]:
                            ctx.losses.append((local, float(psz[pos])))
                        else:
                            ctx.notes.append(
                                (
                                    local,
                                    float(pend[pos]),
                                    int(pww[pos]),
                                    float(psz[pos]),
                                )
                            )

        # 2. Decide: each family's kernel fills its contiguous row slice.
        for ki, (kernel, sl, _) in enumerate(kernels):
            if group_alive[ki]:
                np.subtract(sent_work[sl], done_work[sl], out=works[sl])
                kernel.decide(
                    counts[sl],
                    works[sl],
                    action[sl],
                    worker[sl],
                    size[sl],
                    mask=active[sl] if need_mask else None,
                    ctx=None if ctxs is None else ctxs[ki],
                )

        done_rows = np.flatnonzero(active & (action == DONE))
        if done_rows.size:
            if fault_mode:
                final[orig[done_rows]] = mspan[done_rows]
            else:
                final[orig[done_rows]] = busy[done_rows].max(axis=1)
            active[done_rows] = False
            n_active -= int(done_rows.size)
            for ki in kernel_of_row[done_rows]:
                group_alive[ki] -= 1
            if n_active == 0:
                break
            if can_compact and rows - n_active >= 128 and n_active <= rows // 2:
                keep = np.flatnonzero(active)
                new_kernels = []
                start = 0
                for ki, (kernel, sl, wants) in enumerate(kernels):
                    loc = keep[(keep >= sl.start) & (keep < sl.stop)] - sl.start
                    kernel.compact(loc)
                    new_kernels.append(
                        (kernel, slice(start, start + loc.size), wants)
                    )
                    group_alive[ki] = int(loc.size)
                    start += loc.size
                kernels = new_kernels
                orig = orig[keep]
                counts = counts[keep]
                sent_work = sent_work[keep]
                done_work = done_work[keep]
                busy = busy[keep]
                now = now[keep]
                kdisp = kdisp[keep]
                action = action[keep]
                worker = worker[keep]
                size = size[keep]
                works = works[: keep.size]
                q_end = q_end[keep]
                q_size = q_size[keep]
                q_head = q_head[keep]
                q_tail = q_tail[keep]
                head_end = head_end[keep]
                head_size = head_size[keep]
                head_min = head_min[keep]
                wp = wp[:, keep]
                bank.compact(keep)
                kernel_of_row = kernel_of_row[keep]
                cell_of_row = cell_of_row[keep]
                active = active[keep]
                if collect:
                    q_idx = q_idx[keep]
                    q_lost = q_lost[keep]
                    head_idx = head_idx[keep]
                    head_lost = head_lost[keep]
                    wants_row = wants_row[keep]
                if fault_mode:
                    crash_t = crash_t[keep]
                    pause_s = pause_s[keep]
                    pause_l = pause_l[keep]
                    slow_s = slow_s[keep]
                    slow_f = slow_f[keep]
                    spike_p = spike_p[keep]
                    spike_d = spike_d[keep]
                    fault_row = fault_row[keep]
                    mspan = mspan[keep]
                    if spikes is not None:
                        spikes.compact(keep)
                        spike_any = spikes.any_live
                    # Survivors may no longer need every transform (the
                    # rows that did may all have finished).
                    fault_mode = bool(fault_row.any())
                    any_crash = any_crash and bool(np.isfinite(crash_t).any())
                    any_pause = any_pause and bool((pause_l > 0.0).any())
                    any_slow = any_slow and bool((slow_f > 1.0).any())
                if row_tracers is not None:
                    row_tracers = [row_tracers[int(r)] for r in keep]
                # Deferred rows were inactive from the start, so the
                # survivors are all live: the mask is no longer needed.
                need_mask = False
                rows = int(keep.size)

        # 3a. Apply dispatches.
        disp = np.flatnonzero(active & (action == DISPATCH))
        if disp.size:
            w = worker[disp]
            sz = size[disp]
            k = kdisp[disp]
            bank.ensure(int(k.max()) + 1)
            w_s, w_b, w_cl, w_nl, w_tl = wp[:, disp, w]
            # chunk/inf is +0.0, matching link_time's infinite-bandwidth
            # branch bit for bit; multiplying by an exact 1.0 factor (the
            # zero-error rows) is also a bitwise no-op.
            link_eff = (w_nl + sz / w_b) * bank.comm[disp, k]
            if spike_any:
                # Per-dispatch spike draws gathered from each row's
                # pre-drawn fault-stream columns at the row's dispatch
                # counter; adding an exact +0.0 to unspiked rows is a
                # bitwise no-op.
                if timing:
                    t0 = perf_counter()
                spikes.ensure(int(k.max()) + 1)
                u = spikes.draws[disp, k]
                link_eff = link_eff + np.where(
                    u < spike_p[disp], spike_d[disp], 0.0
                )
                if timing:
                    t_spike += perf_counter() - t0
            send_end = now[disp] + link_eff
            arrival = send_end + w_tl
            comp_start = np.maximum(arrival, busy[disp, w])
            comp_eff = (w_cl + sz / w_s) * bank.comp[disp, k]
            if any_pause:
                # Pause window first, then slowdown onset — the scalar
                # compute_duration order, with its exact associativity.
                if timing:
                    t0 = perf_counter()
                ps = pause_s[disp, w]
                pl = pause_l[disp, w]
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
                    t_pause += perf_counter() - t0
            if any_slow:
                if timing:
                    t0 = perf_counter()
                so = slow_s[disp, w]
                sf = slow_f[disp, w]
                slowed = (sf > 1.0) & (comp_start + comp_eff > so)
                if slowed.any():
                    after = slowed & (comp_start >= so)
                    partial = slowed & ~after
                    done_part = so - comp_start
                    comp_eff = np.where(
                        after,
                        comp_eff * sf,
                        np.where(
                            partial,
                            done_part + (comp_eff - done_part) * sf,
                            comp_eff,
                        ),
                    )
                if timing:
                    t_slow += perf_counter() - t0
            comp_end = comp_start + comp_eff
            busy[disp, w] = comp_end

            if fault_mode:
                if any_crash:
                    # A chunk outliving its worker's crash is lost: the
                    # master observes it leave the pending set at
                    # max(crash, arrival) and it contributes neither work
                    # nor makespan.  The busy chain still advances
                    # (fictitious timeline), so every later chunk on that
                    # worker is lost too — matching the scalar engine.
                    if timing:
                        t0 = perf_counter()
                    cw = crash_t[disp, w]
                    lost = comp_end > cw
                    end_q = np.where(lost, np.maximum(cw, arrival), comp_end)
                    mspan[disp] = np.maximum(
                        mspan[disp], np.where(lost, 0.0, comp_end)
                    )
                    if timing:
                        t_crash += perf_counter() - t0
                else:
                    lost = None
                    end_q = comp_end
                    mspan[disp] = np.maximum(mspan[disp], comp_end)
            else:
                lost = None
                end_q = comp_end

            tail = q_tail[disp, w]
            if int(tail.max()) >= q_end.shape[2]:
                grow = q_end.shape[2]
                q_end = np.concatenate(
                    [q_end, np.full((rows, n_max, grow), np.inf)], axis=2
                )
                q_size = np.concatenate(
                    [q_size, np.zeros((rows, n_max, grow))], axis=2
                )
                if collect:
                    q_idx = np.concatenate(
                        [q_idx, np.zeros((rows, n_max, grow), dtype=np.int64)],
                        axis=2,
                    )
                    q_lost = np.concatenate(
                        [q_lost, np.zeros((rows, n_max, grow), dtype=bool)],
                        axis=2,
                    )
            q_end[disp, w, tail] = end_q
            q_size[disp, w, tail] = sz
            was_empty = tail == q_head[disp, w]
            head_end[disp, w] = np.where(was_empty, end_q, head_end[disp, w])
            head_size[disp, w] = np.where(was_empty, sz, head_size[disp, w])
            # A dispatch can only lower a row's earliest completion, and
            # only through the head it may have just installed.
            head_min[disp] = np.minimum(head_min[disp], head_end[disp, w])
            if collect:
                q_idx[disp, w, tail] = k
                head_idx[disp, w] = np.where(was_empty, k, head_idx[disp, w])
                if lost is not None:
                    q_lost[disp, w, tail] = lost
                    head_lost[disp, w] = np.where(was_empty, lost, head_lost[disp, w])
            if row_tracers is not None:
                for pos, row in enumerate(disp):
                    tracer = row_tracers[row]
                    if tracer is None:
                        continue
                    wi = int(w[pos])
                    ci = int(k[pos])
                    szi = float(sz[pos])
                    tracer.emit(
                        float(now[row]), "dispatch_start", wi, chunk=ci, size=szi
                    )
                    tracer.emit(
                        float(send_end[pos]), "dispatch_end", wi, chunk=ci, size=szi
                    )
                    if lost is not None and lost[pos]:
                        tracer.emit(
                            float(end_q[pos]), "fault", wi,
                            chunk=ci, size=szi, detail="loss",
                        )
                    else:
                        tracer.emit(
                            float(comp_start[pos]), "comp_start", wi,
                            chunk=ci, size=szi,
                        )
                        tracer.emit(
                            float(comp_end[pos]), "comp_end", wi,
                            chunk=ci, size=szi,
                        )

            q_tail[disp, w] += 1
            counts[disp, w] += 1
            sent_work[disp, w] += sz
            kdisp[disp] += 1
            now[disp] = send_end

        # 3b. Apply waits: jump to the earliest outstanding completion
        # (for fault rows that includes pending loss announcements).
        waiting = np.flatnonzero(active & (action == WAIT_FOR_COMPLETION))
        if waiting.size:
            wake = head_min[waiting]
            stuck = np.isinf(wake)
            if stuck.any():
                row = int(waiting[np.flatnonzero(stuck)[0]])
                cell = cells[int(cell_of_row[row])]
                raise DeadlockError(
                    f"{cell.scheduler.name}: WAIT with no outstanding chunk "
                    f"at t={now[row]}"
                )
            now[waiting] = wake

    # Each worker's busy time is its last chunk's completion, so a clean
    # row's makespan — harvested the moment the row turned DONE — is
    # simply the max over workers (pad slots stay 0).  Fault rows instead
    # keep a running maximum over *delivered* completions — a lost
    # chunk's busy entry must not count — which agrees bitwise with the
    # busy max on rows that lost nothing.
    for r in deferred:
        final[r] = defer_makespans[r]
    if timing:
        perf["fault_crash_s"] = perf.get("fault_crash_s", 0.0) + t_crash
        perf["fault_pause_s"] = perf.get("fault_pause_s", 0.0) + t_pause
        perf["fault_slow_s"] = perf.get("fault_slow_s", 0.0) + t_slow
        perf["fault_spike_s"] = perf.get("fault_spike_s", 0.0) + t_spike
    return [final[offsets[i] : offsets[i + 1]].copy() for i in range(len(cells))]


def simulate_dynamic_cells(
    cells,
    mode: str = "multiply",
    min_ratio: float = MIN_RATIO,
    max_rows: int = MAX_ROWS,
    tracers=None,
    arena=None,
    perf=None,
) -> list:
    """Simulate many dynamic cells, merging compatible ones per call.

    Cells are ordered group-major by their kernel spec's ``group_key``
    (decision-rule family) so each lockstep call — chunked to at most
    ``max_rows`` repetition rows — holds contiguous family runs, each
    driven by one merged kernel while the engine state is shared across
    all of them.  Fault cells mix freely with clean ones (see
    :func:`_simulate_rows`).  Returns one makespan array per cell, in
    input order, each of shape ``(len(cell.seeds),)``.

    ``tracers``, when given, parallels ``cells``: each entry is ``None``
    or a sequence of one :class:`repro.obs.Tracer` (or ``None``) per seed
    of that cell (see :func:`_simulate_rows`).  ``arena`` (a
    :class:`BatchArena`) lets a long-running caller — e.g. a whole-grid
    sweep — reuse the engine's state buffers across every call it makes.
    ``perf``, when given, is a mutable mapping accumulating the fault
    engine's counters across calls (see :func:`_simulate_rows`).
    """
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    cells = list(cells)
    outputs: list = [None] * len(cells)
    if arena is None:
        arena = BatchArena()

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
            results = _simulate_rows(
                [cells[i] for i, _ in batch],
                [s for _, s in batch],
                mode,
                min_ratio,
                row_tracers,
                arena,
                perf,
            )
            for (i, _), res in zip(batch, results):
                outputs[i] = res
            batch, batch_rows = [], 0
        if idx is not None:
            batch.append((idx, spec))
            batch_rows += rows
    return outputs
