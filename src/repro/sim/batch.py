"""Vectorized batch simulation of *static* plans.

The fast engine simulates one run at a time in pure Python; for the full
Table-1 grid (~10^8 runs) even a millisecond per run is days.  For
*static* schedules — UMR, MI-x, one-round: the dispatch sequence is fixed
regardless of what the errors do — whole repetition batches can be
simulated as NumPy array operations instead (the "vectorize your loops"
rule of scientific-Python optimization):

* the link timeline is a per-repetition ``cumsum`` over perturbed
  transfer durations;
* each worker's compute chain ``end_k = max(arrival_k, end_{k-1}) +
  comp_k`` is sequential in *chunk index* only, so one pass over the
  (few hundred) chunks performs R-wide vector ops.

With 1000 repetitions per call the amortized cost is a few microseconds
per run — two to three orders of magnitude faster than the scalar engine.

Equivalence contract: the batch result equals the scalar engines
**bitwise at every error**, in both perturbation modes.  Factors come
per repetition from the same two spawned streams as the scalar engines,
in chunk order, as the one sequence :mod:`repro.errors.models` defines.

:func:`simulate_static_cells` stacks a whole *grid* of static cells —
every (platform, error, algorithm) combination — into (rows × chunks)
tensors, one per power-of-two class of plan length, each padded only to
its own longest plan.  The sequential chunk loop is amortized over every
repetition of every cell of a class at once, while a few long plans (a
zero-latency UMR plan can have hundreds of chunks where MI-x has tens)
do not widen the rows of the shorter classes.  Fault cells ride along:
each cell realizes all of its rows' schedules in one
:meth:`~repro.errors.faults.FaultModel.sample_batch` call — a
:class:`~repro.errors.faults.FaultPlane` of stacked arrays,
bit-identical to sampling row by row from each seed's third stream —
then link spikes perturb the link chain before the cumsum, pause /
slowdown windows reshape compute durations inside the chunk loop, and
chunks outliving their worker's crash are lost (they keep the busy chain
advancing but contribute no makespan) — the scalar engine's fault
semantics, vectorized.  Each transform runs only when some row in the
stack needs it: a crash-only stack skips the pause/slowdown arithmetic
entirely, and a spike-only stack runs the clean compute recurrence.

Dynamic schedulers have no fixed dispatch sequence, so they cannot use
*this* engine — but all of them (Factoring, WeightedFactoring, FSC, the
RUMR variants, AdaptiveRUMR) decide from pure arithmetic over
master-observable state and batch under the *lockstep* contract instead:
:mod:`repro.sim.dynbatch` advances all repetitions one decision at a
time as row-wise array operations, consuming the same per-seed streams
through this module's :func:`factor_rows`.  The per-cell seeds are
shared by every path, so the strict cross-algorithm pairing Tables 2–3
need is preserved throughout.
"""

from __future__ import annotations

import dataclasses
import typing
from time import perf_counter

import numpy as np

from repro.core.chunks import ChunkPlan
from repro.errors.faults import FaultModel, FaultPlaneCache
from repro.errors.models import NormalErrorModel, check_magnitude
from repro.platform.spec import PlatformSpec

__all__ = [
    "CompiledStaticPlan",
    "StaticCell",
    "compile_static_plan",
    "factor_rows",
    "factor_stream",
    "simulate_static_cells",
]


@dataclasses.dataclass(frozen=True)
class CompiledStaticPlan:
    """A static plan lowered to per-chunk prediction arrays.

    Everything :func:`simulate_static_cells` needs that depends only on
    ``(platform, plan)`` — worker indices, predicted link/compute times,
    pipeline latencies — extracted once so repeated calls (one per error
    level in a sweep) skip the per-chunk Python loop over the platform.
    """

    num_workers: int
    workers: np.ndarray       # (K,) int — receiving worker per chunk
    link_pred: np.ndarray     # (K,) predicted link occupancy per chunk
    comp_pred: np.ndarray     # (K,) predicted compute duration per chunk
    tlat: np.ndarray          # (K,) pipeline latency per chunk
    sizes: "np.ndarray | None" = None   # (K,) chunk sizes (tracing only)
    phases: tuple[str, ...] = ()        # (K,) plan-derived phase labels
    #: (N, depth) chunk columns per worker in dispatch order, -1-padded —
    #: the layout the depth-major compute recurrence iterates over.
    by_worker: "np.ndarray | None" = None

    @property
    def num_chunks(self) -> int:
        return len(self.workers)

    @property
    def worker_layout(self) -> np.ndarray:
        """The per-worker chunk layout, derived on demand if not stored."""
        if self.by_worker is not None:
            return self.by_worker
        return _worker_layout(self.workers, self.num_workers)


def _worker_layout(workers: np.ndarray, n: int) -> np.ndarray:
    """(n, depth) chunk columns per worker in dispatch order, -1-padded.

    Each worker's compute chain ``end_k = max(arrival_k, end_{k-1}) +
    dur_k`` depends only on its *own* previous chunk, so the batch
    engines iterate the recurrence depth-major: one step per chunk
    position within a worker (``depth`` steps total) instead of one per
    chunk (``K`` steps), with all workers of all rows advancing together.
    """
    counts = np.bincount(workers, minlength=n) if len(workers) else np.zeros(n, int)
    depth = int(counts.max()) if len(workers) else 0
    out = np.full((n, max(depth, 1)), -1, dtype=np.intp)
    pos = np.zeros(n, dtype=np.intp)
    for j, w in enumerate(workers):
        out[w, pos[w]] = j
        pos[w] += 1
    return out


#: Identity-keyed memo for :func:`compile_static_plan`.  Solvers are
#: lru-cached, so a sweep re-presents the *same* platform and plan
#: objects every time it revisits a cell; keeping strong references in
#: the value makes the ``id()`` key safe (no recycled ids while cached).
_COMPILE_CACHE: dict = {}
_COMPILE_CACHE_MAX = 1024


def compile_static_plan(platform: PlatformSpec, plan: ChunkPlan) -> CompiledStaticPlan:
    """Lower a :class:`ChunkPlan` for repeated batch simulation."""
    key = (id(platform), id(plan))
    hit = _COMPILE_CACHE.get(key)
    if hit is not None and hit[0] is platform and hit[1] is plan:
        return hit[2]
    chunks = list(plan)
    workers = np.array([c.worker for c in chunks], dtype=np.intp)
    compiled = CompiledStaticPlan(
        num_workers=platform.N,
        workers=workers,
        link_pred=np.array([platform[c.worker].link_time(c.size) for c in chunks]),
        comp_pred=np.array([platform[c.worker].compute_time(c.size) for c in chunks]),
        tlat=np.array([platform[c.worker].tLat for c in chunks]),
        sizes=np.array([c.size for c in chunks]),
        phases=tuple(
            f"round{c.round_index}" if c.round_index >= 0 else "" for c in chunks
        ),
        by_worker=_worker_layout(workers, platform.N),
    )
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.pop(next(iter(_COMPILE_CACHE)))
    _COMPILE_CACHE[key] = (platform, plan, compiled)
    return compiled


#: Smallest block a factor stream grows by.  Any block schedule yields
#: the same values; the floor only saves generator calls.
_MIN_BLOCK = 64


class _FactorStream:
    """One seed's (comm, comp) factor columns, grown by continuation.

    The generators persist with the drawn columns, so extending the
    column count continues the *same* stream — an entry's prefix never
    changes once drawn.  Columns come from
    :meth:`NormalErrorModel.ratios`, which equals the scalar engines'
    factor-by-factor draws whatever the block sizes, so a stream's values
    depend only on its seed: one algorithm's factors do not depend on
    which other algorithms, or which plan lengths, share its sweep.
    Factors are stored raw (multiply-mode); :func:`factor_rows` applies
    the ``divide`` inversion.
    """

    __slots__ = ("comm", "comp", "_gen_comm", "_gen_comp", "_model")

    def __init__(self, seed: int, magnitude: float):
        comm_seq, comp_seq = np.random.SeedSequence(int(seed)).spawn(2)
        self._gen_comm = np.random.Generator(np.random.PCG64(comm_seq))
        self._gen_comp = np.random.Generator(np.random.PCG64(comp_seq))
        self._model = NormalErrorModel(magnitude)
        self.comm = np.empty(0)
        self.comp = np.empty(0)

    def ensure(self, cols: int) -> None:
        have = len(self.comm)
        if cols > have:
            # Grow at least by doubling, so repeated requests stay amortized.
            block = max(cols - have, have, _MIN_BLOCK)
            self.comm = np.append(self.comm, self._model.ratios(self._gen_comm, block))
            self.comp = np.append(self.comp, self._model.ratios(self._gen_comp, block))


#: Bounded FIFO cache of factor streams keyed by (seed, magnitude).
#: Sweeps revisit the same per-cell seeds constantly — all algorithms
#: share a cell's streams (paired comparisons), fault-scenario sweeps
#: re-run the same cells, and benchmark/retry paths repeat whole grids —
#: so the spawn-and-draw cost is paid once per seed, not once per visit.
#: Entries are never mutated after growth (prefix-stable), so consumers
#: may slice but must not write into the returned rows.
_FACTOR_STREAMS: dict = {}
_FACTOR_STREAMS_MAX = 4096


def factor_stream(seed: int, magnitude: float, cols: int) -> _FactorStream:
    """The cached factor stream for ``seed``, grown to ``cols`` columns.

    Requires ``magnitude > 0`` (zero-magnitude rows are exact ones and
    need no stream at all).  The returned entry's ``comm``/``comp``
    arrays have at least ``cols`` columns; callers slice a prefix and
    must treat the arrays as read-only.  The values do not depend on
    ``cols`` or on earlier requests (see :class:`_FactorStream`), so a
    cold and a warm cache give the same prefix.
    """
    key = (int(seed), float(magnitude))
    entry = _FACTOR_STREAMS.get(key)
    if entry is None:
        if len(_FACTOR_STREAMS) >= _FACTOR_STREAMS_MAX:
            _FACTOR_STREAMS.pop(next(iter(_FACTOR_STREAMS)))
        entry = _FactorStream(seed, magnitude)
        _FACTOR_STREAMS[key] = entry
    entry.ensure(cols)
    return entry


def factor_rows(keys, cols: int, mode: str) -> "tuple[np.ndarray, np.ndarray]":
    """``(comm, comp)`` factor matrices, one row per ``(seed, error)`` key.

    A ``None`` key gives exact ones (zero-error rows touch no stream).  In
    ``divide`` mode factors are inverted, so consumers always multiply:
    ``predicted · (1/X)``, as the scalar ``perturb`` computes.
    """
    comm = np.ones((len(keys), cols))
    comp = np.ones((len(keys), cols))
    for r, key in enumerate(keys):
        if key is not None:
            stream = factor_stream(key[0], key[1], cols)
            comm[r] = stream.comm[:cols]
            comp[r] = stream.comp[:cols]
    if mode == "divide":
        np.divide(1.0, comm, out=comm)
        np.divide(1.0, comp, out=comp)
    return comm, comp


@dataclasses.dataclass(frozen=True)
class StaticCell:
    """One static (platform, plan, error) cell and its repetition seeds.

    The grid-stacking unit of :func:`simulate_static_cells`.  ``faults``
    optionally injects a fault scenario: each repetition row samples its
    own schedule from the seed's third spawned stream, exactly like the
    scalar engine.
    """

    platform: PlatformSpec
    plan: CompiledStaticPlan
    error: float
    seeds: tuple
    faults: "FaultModel | None" = None

    def __post_init__(self) -> None:
        check_magnitude(self.error)
        if len(self.seeds) == 0:
            raise ValueError("a cell needs at least one seed")


def _traced_rows(cells, tracers) -> list:
    """``(cell index, seed index, tracer)`` of every traced repetition."""
    if tracers is None:
        return []
    traced = []
    for i, (cell, cell_tracers) in enumerate(zip(cells, tracers)):
        for s, tracer in enumerate(cell_tracers or ()):
            if tracer is None:
                continue
            if cell.faults is not None:
                raise ValueError(
                    "fault cells cannot be traced; use the scalar engine "
                    "for traced fault runs"
                )
            traced.append((i, s, tracer))
    return traced


def _emit_static_trace(tracer, plan, send_end, comp_dur, starts, gidx) -> None:
    """Emit one traced row's event stream in dispatch order.

    ``send_end``/``comp_dur`` are the row's per-chunk link releases and
    compute durations; ``starts`` holds its compute starts in the
    (workers, depth) gather layout ``gidx`` of the recurrence.
    """
    k = plan.num_chunks
    comp_start = np.empty(k)
    real = gidx < k
    comp_start[gidx[real]] = starts.reshape(-1)[real]
    sizes = plan.sizes if plan.sizes is not None else np.zeros(k)
    phases = plan.phases if plan.phases else ("",) * k
    last_phase: str | None = None
    for j in range(k):
        w = int(plan.workers[j])
        ph = phases[j]
        sz = float(sizes[j])
        ss = float(send_end[j - 1]) if j else 0.0
        if ph != last_phase:
            tracer.emit(ss, "round_boundary", -1, chunk=j, phase=ph)
            last_phase = ph
        tracer.emit(ss, "dispatch_start", w, chunk=j, size=sz, phase=ph)
        tracer.emit(float(send_end[j]), "dispatch_end", w, chunk=j, size=sz, phase=ph)
        cs = float(comp_start[j])
        tracer.emit(cs, "comp_start", w, chunk=j, size=sz, phase=ph)
        tracer.emit(
            cs + float(comp_dur[j]), "comp_end", w, chunk=j, size=sz, phase=ph
        )


def simulate_static_cells(
    cells: "typing.Sequence[StaticCell]",
    mode: str = "multiply",
    perf=None,
    tracers=None,
    planes=None,
) -> list:
    """Simulate a whole grid of static cells in a few stacked passes.

    Cells are grouped by the power-of-two class of their plan's chunk
    count (``num_chunks.bit_length()``), and each class becomes one
    (rows × chunks) tensor — every repetition of every cell one row —
    padded only to the longest plan *of its class*.  The sequential
    chunk loop, the only per-chunk Python cost, then runs once per class
    instead of once per (platform, error, algorithm) cell, and within a
    class every row's plan fills more than half of the padded chunk
    axis, however long the grid's longest plan is.
    Every row is computed independently (the link ``cumsum`` and the
    compute recurrence run row-wise, and pad slots are exact no-ops), so
    the grouping never changes a result.

    Factor draws are deduplicated by ``(seed, error)``: rows sharing a
    seed and magnitude (the same cell simulated under several algorithms
    — the paired-comparison discipline) reuse one draw, like the scalar
    engines re-deriving identical streams from the seed.

    Deterministic fault-free cells (``error == 0`` and no faults)
    collapse to a single simulated row broadcast over their seeds (no
    RNG is spawned for them).  Fault cells keep one row per seed — their
    schedules differ — and follow the scalar fault semantics vectorized
    (see the module docstring).

    ``perf``, when given, is a mutable mapping accumulating fault-engine
    wall-time counters across calls: ``fault_sample_s`` plus the
    per-kind transform times ``fault_crash_s`` / ``fault_pause_s`` /
    ``fault_slow_s`` / ``fault_spike_s``.

    ``tracers``, when given, parallels ``cells``: each entry is ``None``
    or a sequence of one :class:`repro.obs.Tracer` (or ``None``) per seed
    of that cell, receiving that repetition's event stream.  Phase labels
    come from the compiled plan's round indices (``"round{r}"``) rather
    than scheduler-specific names, and timelines are extracted only for
    traced rows.  Fault cells cannot be traced (use the scalar engine).

    ``planes``, a :class:`~repro.errors.faults.FaultPlaneCache`, shares
    fault planes with other passes over the same cells; by default cells
    of this call that share a fault model, platform and seeds share one.

    Returns one makespan array per cell, in input order, each of shape
    ``(len(cell.seeds),)``.
    """
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    cells = list(cells)
    # Reject traced fault cells before any class is simulated or traced.
    _traced_rows(cells, tracers)
    if planes is None:
        planes = FaultPlaneCache()
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(cells):
        classes.setdefault(c.plan.num_chunks.bit_length(), []).append(i)
    out: list = [None] * len(cells)
    for members in classes.values():
        results = _simulate_stack(
            [cells[i] for i in members], mode, perf,
            None if tracers is None else [tracers[i] for i in members], planes,
        )
        for i, makespans in zip(members, results):
            out[i] = makespans
    return out


def _simulate_stack(cells, mode, perf, tracers, planes) -> list:
    """One (rows × chunks) pass over ``cells``, padded to their longest plan."""
    traced = _traced_rows(cells, tracers)
    # Clean deterministic cells need only one representative row.
    row_counts = [
        1 if (c.error == 0.0 and c.faults is None) else len(c.seeds) for c in cells
    ]
    offsets = np.cumsum([0] + row_counts)
    rows = int(offsets[-1])
    k_max = max(c.plan.num_chunks for c in cells)
    n_max = max(c.plan.num_workers for c in cells)
    if k_max == 0:
        return [np.zeros(len(c.seeds)) for c in cells]
    # Stack rows of the traced repetitions (a collapsed cell's one row).
    trace_rows = [int(offsets[i]) + min(s, row_counts[i] - 1) for i, s, _ in traced]

    # Per-cell padded prediction arrays, row-expanded over repetitions.
    link_pred = np.zeros((len(cells), k_max))
    comp_pred = np.zeros((len(cells), k_max))
    tlat = np.zeros((len(cells), k_max))
    for i, c in enumerate(cells):
        k = c.plan.num_chunks
        link_pred[i, :k] = c.plan.link_pred
        comp_pred[i, :k] = c.plan.comp_pred
        tlat[i, :k] = c.plan.tlat
    rep = lambda a: np.repeat(a, row_counts, axis=0)  # noqa: E731
    link_pred, comp_pred, tlat = map(rep, (link_pred, comp_pred, tlat))

    # Factor matrices: k_max columns so any plan in the stack can consume
    # its prefix.
    keys = [
        (int(seed), c.error) if c.error > 0.0 else None
        for c, count in zip(cells, row_counts)
        for seed in c.seeds[:count]
    ]
    comm, comp = factor_rows(keys, k_max, mode)

    # Fault realization: each fault cell's rows come from one batched
    # FaultPlane draw, block-copied into the stack arrays (neutral
    # defaults keep the transforms bitwise no-ops on clean rows).
    fault_mode = any(c.faults is not None for c in cells)
    any_crash = any_pause = any_slow = False
    timing = perf is not None
    t_crash = t_pause = t_slow = 0.0
    spike_rows: list = []
    if fault_mode:
        t0 = perf_counter() if timing else 0.0
        crash_t = np.full((rows, n_max), np.inf)
        pause_s = np.zeros((rows, n_max))
        pause_l = np.zeros((rows, n_max))
        slow_s = np.zeros((rows, n_max))
        slow_f = np.ones((rows, n_max))
        r = 0
        for c, count in zip(cells, row_counts):
            if c.faults is None:
                r += count
                continue
            plane = planes.realize(c.faults, c.platform, c.seeds)
            sl = slice(r, r + count)
            n = plane.num_workers
            crash_t[sl, :n] = plane.crash_time
            pause_s[sl, :n] = plane.pause_start
            pause_l[sl, :n] = plane.pause_len
            slow_s[sl, :n] = plane.slow_start
            slow_f[sl, :n] = plane.slow_factor
            kc = c.plan.num_chunks
            for j, rng in enumerate(plane.rngs):
                if rng is None:
                    continue
                # One uniform draw per dispatch, in dispatch order —
                # Generator.random(k) consumes the stream exactly like
                # k scalar calls.  The scalar engine adds the spike
                # *after* perturbing, so it becomes an additive term
                # folded into link_eff below.
                draws = rng.random(kc)
                spikes = np.where(
                    draws < plane.spike_prob[j], plane.spike_delay[j], 0.0
                )
                spike_rows.append((r + j, kc, spikes))
            r += count
        any_crash = bool(np.isfinite(crash_t).any())
        any_pause = bool((pause_l > 0.0).any())
        any_slow = bool((slow_f > 1.0).any())
        if timing:
            perf["fault_sample_s"] = (
                perf.get("fault_sample_s", 0.0) + perf_counter() - t0
            )

    link_eff = link_pred * comm
    if spike_rows:
        t0 = perf_counter() if timing else 0.0
        for r, kc, spikes in spike_rows:
            link_eff[r, :kc] += spikes
        if timing:
            perf["fault_spike_s"] = (
                perf.get("fault_spike_s", 0.0) + perf_counter() - t0
            )
    # arrival/duration carry the sentinel column in-place (computed into
    # the padded allocation directly — no concatenate copies).
    arr_pad = np.empty((rows, k_max + 1))
    dur_pad = np.empty((rows, k_max + 1))
    arrival = arr_pad[:, :k_max]
    comp_dur = dur_pad[:, :k_max]
    np.cumsum(link_eff, axis=1, out=arrival)
    arrival += tlat
    arr_pad[:, k_max] = -np.inf
    np.multiply(comp_pred, comp, out=comp_dur)
    dur_pad[:, k_max] = 0.0

    # Depth-major compute recurrence (see :func:`_worker_layout`): gather
    # each chunk's arrival/duration into (rows, workers, depth) position,
    # then advance every worker chain of every row one chunk per step.
    # Pad slots gather the appended sentinel column (arrival -inf, dur 0),
    # making ``max(busy, -inf) + 0`` an exact no-op on the busy chain.
    d_max = max(c.plan.worker_layout.shape[1] for c in cells)
    gidx = np.full((len(cells), n_max, d_max), k_max, dtype=np.intp)
    for i, c in enumerate(cells):
        bw = c.plan.worker_layout
        n, d = bw.shape
        np.copyto(gidx[i, :n, :d], bw, where=bw >= 0)
    gidx = rep(gidx.reshape(len(cells), n_max * d_max))
    arr_g = np.take_along_axis(arr_pad, gidx, axis=1).reshape(rows, n_max, d_max)
    dur_g = np.take_along_axis(dur_pad, gidx, axis=1).reshape(rows, n_max, d_max)

    busy = np.zeros((rows, n_max))
    # Compute starts of the traced rows, in the (workers, depth) layout.
    starts_g = np.empty((len(trace_rows), n_max, d_max)) if traced else None
    if not (any_crash or any_pause or any_slow):
        # Clean recurrence — also taken by fault stacks whose rows need
        # no compute-side transform (e.g. spike-only, already folded
        # into the link chain): nothing is lost, so the makespan over
        # delivered chunks equals the busy-chain max bitwise.
        for d in range(d_max):
            np.maximum(busy, arr_g[:, :, d], out=busy)
            if starts_g is not None:
                starts_g[:, :, d] = busy[trace_rows]
            busy += dur_g[:, :, d]
        # Worker chain ends are monotone, so the final busy time per
        # worker is its chain maximum and the row max is the makespan.
        mspan = busy.max(axis=1)
    else:
        vmask = (gidx != k_max).reshape(rows, n_max, d_max)
        mspan_w = np.zeros((rows, n_max))
        for d in range(d_max):
            v = vmask[:, :, d]
            start = np.maximum(busy, arr_g[:, :, d])
            if starts_g is not None:
                starts_g[:, :, d] = start[trace_rows]
            dur = dur_g[:, :, d]
            if any_pause:
                # Pause window first, then slowdown onset — the scalar
                # compute_duration order, with its exact associativity.
                if timing:
                    t0 = perf_counter()
                in_window = (pause_l > 0.0) & (start < pause_s + pause_l)
                if in_window.any():
                    inside = in_window & (start >= pause_s)
                    straddle = in_window & ~inside & (start + dur > pause_s)
                    dur = np.where(
                        inside,
                        (pause_s + pause_l + dur) - start,
                        np.where(straddle, dur + pause_l, dur),
                    )
                if timing:
                    t_pause += perf_counter() - t0
            if any_slow:
                if timing:
                    t0 = perf_counter()
                slowed = (slow_f > 1.0) & (start + dur > slow_s)
                if slowed.any():
                    after = slowed & (start >= slow_s)
                    partial = slowed & ~after
                    done_part = slow_s - start
                    dur = np.where(
                        after,
                        dur * slow_f,
                        np.where(
                            partial, done_part + (dur - done_part) * slow_f, dur
                        ),
                    )
                if timing:
                    t_slow += perf_counter() - t0
            end = start + dur
            busy = np.where(v, end, busy)
            if any_crash:
                # Lost chunks (computation outlives the crash) keep the
                # busy chain advancing but never extend the makespan.
                if timing:
                    t0 = perf_counter()
                delivered = v & ~(end > crash_t)
                np.maximum(mspan_w, np.where(delivered, end, 0.0), out=mspan_w)
                if timing:
                    t_crash += perf_counter() - t0
            else:
                np.maximum(mspan_w, np.where(v, end, 0.0), out=mspan_w)
        mspan = mspan_w.max(axis=1)
    if timing:
        perf["fault_crash_s"] = perf.get("fault_crash_s", 0.0) + t_crash
        perf["fault_pause_s"] = perf.get("fault_pause_s", 0.0) + t_pause
        perf["fault_slow_s"] = perf.get("fault_slow_s", 0.0) + t_slow

    if traced:
        # send_start_j is exactly send_end_{j-1} (the scalar engines' link
        # chain), not send_end_j - link_j: (a + b) - b != a in floats.
        send_end = np.cumsum(link_eff[trace_rows], axis=1)
        for (i, _, tracer), r, row, starts in zip(
            traced, trace_rows, send_end, starts_g
        ):
            _emit_static_trace(
                tracer, cells[i].plan, row, dur_pad[r], starts, gidx[r]
            )

    out = []
    for i, c in enumerate(cells):
        part = mspan[offsets[i] : offsets[i + 1]]
        if row_counts[i] == 1 and len(c.seeds) != 1:
            out.append(np.full(len(c.seeds), part[0]))
        else:
            out.append(part.copy())
    return out
