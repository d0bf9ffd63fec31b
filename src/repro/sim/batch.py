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
each cell's :class:`~repro.errors.faults.FaultPlane` is copied into the
pass's :class:`~repro.errors.faults.FaultStack`, which applies the
scalar fault semantics to whole blocks: link spikes before the cumsum,
duration stretches inside the chunk loop, and the loss rule (a lost
chunk keeps the busy chain advancing but contributes no makespan).  A
stack whose rows need no compute-side transform (clean or spike-only)
runs the clean compute recurrence.

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
import itertools
import typing

import numpy as np

from repro.core.chunks import ChunkPlan
from repro.errors import rng
from repro.errors.faults import FaultModel, FaultPlaneCache, FaultStack
from repro.errors.models import NormalErrorModel, check_magnitude
from repro.obs.events import chunk_events, phase_event
from repro.platform.spec import PlatformSpec

__all__ = [
    "CompiledStaticPlan",
    "FactorStreams",
    "StaticCell",
    "check_tracers",
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


#: Identity-keyed memo for :func:`compile_static_plan`.  Platform builds
#: are memoized and registry static schedulers return one cached
#: :class:`ChunkPlan` per solved plan, so every sweep over a grid
#: re-presents the *same* platform and plan objects and hits here
#: (bounded by the solvers' lru caches: an evicted plan is solved and
#: compiled anew).  Keeping strong references in the value makes the
#: ``id()`` key safe (no recycled ids while cached).
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
        phases=tuple(c.phase for c in chunks),
        by_worker=_worker_layout(workers, platform.N),
    )
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.pop(next(iter(_COMPILE_CACHE)))
    _COMPILE_CACHE[key] = (platform, plan, compiled)
    return compiled


#: Fewest factor columns a stream draws at a time.  A draw this short
#: costs its fixed per-call overhead, not its length, and this is the
#: lockstep factor bank's first width, so the columns the static pass
#: draws also serve the lockstep pass's first dispatches.
MIN_DRAW = 160


class _FactorStream:
    """One seed's (comm, comp) factor columns, grown by continuation.

    The generators persist with the drawn columns, so extending the
    column count continues the *same* stream — an entry's prefix never
    changes once drawn.  Columns come from
    :meth:`NormalErrorModel.ratios`, which equals the scalar engines'
    factor-by-factor draws whatever the block sizes, so a stream's values
    depend only on its seed: one algorithm's factors do not depend on
    which other algorithms, or which plan lengths, share its sweep.  The
    generators are the seed's children 0 (comm) and 1 (comp), created in
    bulk by :func:`factor_stream`.  Factors are stored raw
    (multiply-mode); :func:`factor_rows` applies the ``divide``
    inversion.
    """

    __slots__ = ("comm", "comp", "_gen_comm", "_gen_comp", "_model")

    def __init__(self, gen_comm, gen_comp, model: NormalErrorModel):
        self._gen_comm = gen_comm
        self._gen_comp = gen_comp
        self._model = model
        self.comm = self.comp = np.empty(0)

    def extend(self, cols: int) -> None:
        """Draw the columns missing up to ``cols``, at least :data:`MIN_DRAW`."""
        have = len(self.comm)
        if cols > have:
            more = max(cols - have, MIN_DRAW)
            comm = self._model.ratios(self._gen_comm, more)
            comp = self._model.ratios(self._gen_comp, more)
            if have:
                comm = np.concatenate((self.comm, comm))
                comp = np.concatenate((self.comp, comp))
            self.comm, self.comp = comm, comp


class FactorStreams(dict):
    """The factor streams of one sweep, keyed by ``(seed, magnitude)``.

    Sweeps revisit the same per-cell seeds constantly — all algorithms
    share a cell's streams (paired comparisons), and both batch passes
    simulate every cell — so each stream is created once, on first
    request, and drawn only as far as its consumers need.  Nothing is
    evicted: the store lives as long as its owner keeps it (one
    :func:`~repro.experiments.runner.run_sweep` call, shared by the
    static and lockstep passes, like
    :class:`~repro.errors.faults.FaultPlaneCache`).  Entries are never
    rewritten after growth (prefix-stable), so consumers may slice but
    must not write into the arrays.
    """


def factor_stream(streams: FactorStreams, keys, cols) -> None:
    """Draw the factor streams of ``keys`` to ``cols`` columns each.

    ``keys`` are distinct ``(seed, magnitude)`` pairs with ``magnitude >
    0`` (zero-magnitude rows are exact ones and need no stream);
    ``cols`` is one column count or one per key.  Streams missing from
    ``streams`` are created together: their comm/comp generators come
    from one batched seed derivation (:func:`repro.errors.rng.streams`).
    The values do not depend on ``cols`` or on earlier requests (see
    :class:`_FactorStream`), so a cold and a warm store give the same
    prefix.
    """
    missing = [key for key in keys if key not in streams]
    if missing:
        gens = rng.streams(
            [seed for seed, _ in missing] * 2,
            np.repeat([[0], [1]], len(missing), axis=0),
        )
        models: dict = {}
        for key, gen_comm, gen_comp in zip(missing, gens, gens[len(missing) :]):
            model = models.get(key[1])
            if model is None:
                model = models[key[1]] = NormalErrorModel(key[1])
            streams[key] = _FactorStream(gen_comm, gen_comp, model)
    if isinstance(cols, int):
        cols = itertools.repeat(cols)
    for key, width in zip(keys, cols):
        streams[key].extend(width)


def factor_rows(
    keys, cols: int, mode: str, streams: FactorStreams, start: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """``(comm, comp)`` factor columns ``start:cols``, one row per key.

    Rows are ``(seed, error)`` keys of streams already drawn by
    :func:`factor_stream`; this only gathers: the distinct keys' columns
    are concatenated once, then one fancy-index pass spreads them over
    the rows.  A ``None`` key gives exact ones (zero-error rows touch no
    stream), and so do the columns past a stream's drawn end — padding
    no consumer of that row reads.  In ``divide`` mode factors are
    inverted, so consumers always multiply: ``predicted · (1/X)``, as
    the scalar ``perturb`` computes.
    """
    width = cols - start
    # Slot 0 is the all-ones row of every None key.
    index: dict = {None: 0}
    pos = [index.setdefault(key, len(index)) for key in keys]
    entries = [streams[key] for key in itertools.islice(index, 1, None)]
    out = []
    for name in ("comm", "comp"):
        parts = [getattr(e, name)[start:cols] for e in entries]
        unique = np.ones((len(index), width))
        if parts:
            lengths = np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
            unique[1:][np.arange(width) < lengths[:, None]] = np.concatenate(parts)
        if mode == "divide":
            np.divide(1.0, unique, out=unique)
        out.append(unique[pos])
    return out[0], out[1]


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


def check_tracers(cells, tracers) -> None:
    """Raise unless ``tracers`` has one entry per cell and each a seed's.

    ``tracers`` parallels ``cells`` in both batch engines: an entry is
    ``None`` or one tracer (or ``None``) per seed of its cell.  A list of
    the wrong length would hand its tracers to the wrong rows.
    """
    if tracers is None:
        return
    if len(tracers) != len(cells):
        raise ValueError(f"{len(tracers)} tracer entries for {len(cells)} cells")
    for i, (cell, cell_tracers) in enumerate(zip(cells, tracers)):
        if cell_tracers is not None and len(cell_tracers) != len(cell.seeds):
            raise ValueError(
                f"cell {i}: {len(cell_tracers)} tracers for {len(cell.seeds)} seeds"
            )


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
        ph = phases[j]
        ss = float(send_end[j - 1]) if j else 0.0
        cs = float(comp_start[j])
        last_phase = phase_event(tracer.emit, ss, j, ph, last_phase)
        chunk_events(
            tracer.emit, int(plan.workers[j]), j, float(sizes[j]), ph, ss,
            float(send_end[j]), None, cs, cs + float(comp_dur[j]),
        )


def simulate_static_cells(
    cells: "typing.Sequence[StaticCell]",
    mode: str = "multiply",
    perf=None,
    tracers=None,
    planes=None,
    streams=None,
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
    engines re-deriving identical streams from the seed.  Every stream
    is drawn once, before the first class, to the longest plan among its
    seed's cells; the classes only gather from it.  ``streams``, a
    :class:`FactorStreams`, shares the draws with other passes over the
    same seeds; by default the store lives for this call only.

    Deterministic fault-free cells (``error == 0`` and no faults)
    collapse to a single simulated row broadcast over their seeds (no
    RNG is spawned for them).  Fault cells keep one row per seed — their
    schedules differ — and follow the scalar fault semantics vectorized
    (see the module docstring).

    ``perf``, when given, is a mutable mapping the pass's
    :class:`~repro.errors.faults.FaultStack` bills fault wall time into
    across calls (``fault_<kind>_s``).

    ``tracers``, when given, parallels ``cells``: each entry is ``None``
    or a sequence of one :class:`repro.obs.Tracer` (or ``None``) per seed
    of that cell, receiving that repetition's event stream.  Phase labels
    are the plan's own (:attr:`~repro.core.chunks.PlannedChunk.phase`),
    the labels the scalar engines replay, and timelines are extracted
    only for traced rows.  Fault cells cannot be traced (use the scalar engine).

    ``planes``, a :class:`~repro.errors.faults.FaultPlaneCache`, shares
    fault planes with other passes over the same cells; by default cells
    of this call that share a fault model, platform and seeds share one.

    Returns one makespan array per cell, in input order, each of shape
    ``(len(cell.seeds),)``.
    """
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    cells = list(cells)
    # Reject bad tracer lists and traced fault cells before any class is
    # simulated or traced.
    check_tracers(cells, tracers)
    _traced_rows(cells, tracers)
    if planes is None:
        planes = FaultPlaneCache()
    if streams is None:
        streams = FactorStreams()
    _reserve_factors(cells, streams)
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(cells):
        classes.setdefault(c.plan.num_chunks.bit_length(), []).append(i)
    out: list = [None] * len(cells)
    for members in classes.values():
        results = _simulate_stack(
            [cells[i] for i in members], mode, perf,
            None if tracers is None else [tracers[i] for i in members],
            planes, streams,
        )
        for i, makespans in zip(members, results):
            out[i] = makespans
    return out


def _reserve_factors(cells, streams: FactorStreams) -> None:
    """Draw every stream the cells read, each to its seed's longest plan."""
    longest: dict = {}
    for c in cells:
        if c.error > 0.0:
            key = (c.seeds, c.error)
            longest[key] = max(longest.get(key, 0), c.plan.num_chunks)
    need: dict = {}
    for (seeds, error), k in longest.items():
        for seed in seeds:
            key = (int(seed), error)
            need[key] = max(need.get(key, 0), k)
    factor_stream(streams, list(need), list(need.values()))


def _simulate_stack(cells, mode, perf, tracers, planes, streams) -> list:
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

    # Factor matrices: k_max columns, each row's stream drawn at least to
    # its own plan's length (see _reserve_factors).
    keys = [
        (int(seed), c.error) if c.error > 0.0 else None
        for c, count in zip(cells, row_counts)
        for seed in c.seeds[:count]
    ]
    comm, comp = factor_rows(keys, k_max, mode, streams)

    # Fault realization: each fault cell's rows come from one batched
    # FaultPlane draw, block-copied into the pass's FaultStack.  The
    # scalar engine adds a spike *after* perturbing, so it is an additive
    # term of link_eff.
    faults = FaultStack(rows, n_max, perf=perf)
    if any(c.faults is not None for c in cells):
        with faults.timed("sample"):
            for c, lo, hi in zip(cells, offsets, offsets[1:]):
                if c.faults is not None:
                    plane = planes.realize(c.faults, c.platform, c.seeds)
                    faults.put(slice(lo, hi), plane)
            faults.seal()
    link_eff = link_pred * comm
    if faults.any_spike:
        link_eff += faults.spikes(None, k_max)
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
    if not (faults.any_crash or faults.any_pause or faults.any_slow):
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
            end = start + faults.stretch(None, start, dur_g[:, :, d])
            busy = np.where(v, end, busy)
            if faults.any_crash:
                # Lost chunks (computation outlives the crash) keep the
                # busy chain advancing but never extend the makespan.
                v = v & ~faults.lost(None, end)
            np.maximum(mspan_w, np.where(v, end, 0.0), out=mspan_w)
        mspan = mspan_w.max(axis=1)

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
