"""Sweep runner: grids × algorithms → makespan tensors.

Seeding discipline: every (platform, error, repetition) cell gets its own
stream key derived from the grid seed, *shared across algorithms* (common
random numbers) — the same trick the paper needs for its paired
"percentage of experiments where RUMR outperforms X" statistics.

Fast path: algorithms that declare :attr:`~repro.core.base.Scheduler.
is_static` (UMR, MI-x, one-round) have a fixed dispatch sequence, so
*every* one of their cells — the whole (platform × error × repetition)
grid — goes into a single :func:`~repro.sim.batch.simulate_static_cells`
call: one (rows × chunks) tensor per plan-length class, NumPy array
math instead of the per-run Python loop, two orders of magnitude
faster.  Each plan is solved once per platform and shared across every
error level and repetition.  Every other registry algorithm — Factoring,
WeightedFactoring, FSC, RUMR and its variants, AdaptiveRUMR — has no
fixed plan but a pure-arithmetic decision rule, so *its* repetition axes
advance in lockstep through
:func:`~repro.sim.dynbatch.simulate_dynamic_cells` — one global pass
merging every (platform, error) cell, reusing one grow-only
:class:`~repro.sim.dynbatch.BatchArena` across the merged calls.  Fault
grids ride the same passes: both batch engines realize per-repetition
fault schedules with the scalar engine's exact semantics, and one
:class:`~repro.errors.faults.FaultPlaneCache` per sweep realizes each
(platform, seeds) fault plane once for every algorithm of both passes.
The routing is decided once per sweep (:func:`_engine_map`) and both
passes run through one skeleton (:func:`_run_batch_pass`).
All paths use *the same per-cell seeds*, so the cross-algorithm pairing
is untouched.  The batch paths agree with the scalar engine bit for bit
at every error: all engines consume the one perturbation sequence
defined by :mod:`repro.errors.models` (see ``repro.sim.batch`` /
``repro.sim.dynbatch``).  ``batch_static=False`` (CLI ``--no-batch``)
forces everything through the scalar engine.

Resilience: every cell executes under a
:class:`~repro.experiments.resilient.CellSupervisor` — retried per the
:class:`~repro.experiments.resilient.RetryPolicy`, rerouted down the
engine-fallback ladder (batch engine → scalar engine), and finally
quarantined as NaN with a :class:`~repro.experiments.resilient.
CellFailure` ledger entry instead of aborting the sweep.  With a
``checkpoint_dir``, each completed platform shard (and the lockstep
pass) is flushed atomically so a killed sweep resumes from the last
shard via ``resume=True``.  The process pool is supervised too: a
``BrokenProcessPool`` restarts the pool once and degrades to in-process
execution on a second break; a shard that overruns
``RetryPolicy.cell_timeout_s`` is abandoned (its worker killed) and
recomputed in-process.  Because a retry re-runs the exact same seeded
computation, any cell that eventually succeeds on its original engine is
bitwise identical to an unperturbed run; a scalar fallback yields
exactly what ``batch_static=False`` would have.

The runner is serial by default (the reproduction box has one core) but
can fan platforms out over a process pool with ``n_jobs > 1`` (or
``n_jobs=-1`` for one worker per CPU).  The grid ships to pool workers
once, through the pool initializer — not inside every task.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import time
import typing
from functools import lru_cache, partial

import numpy as np

from repro.core.registry import is_static_algorithm, make_scheduler
from repro.errors.faults import FaultPlaneCache, make_fault_model
from repro.errors.models import make_error_model
from repro.errors.rng import stream_for
from repro.experiments.config import (
    PAPER_ALGORITHMS,
    ExperimentGrid,
    PlatformPoint,
    sweep_key,
)
from repro.experiments.resilient import (
    CellSupervisor,
    CheckpointStore,
    FailureLedger,
    RetryPolicy,
)
from repro.sim.batch import (
    StaticCell,
    compile_static_plan,
    simulate_static_cells,
)
from repro.platform.topology import make_topology
from repro.sim.dynbatch import BatchArena, DynamicCell, simulate_dynamic_cells
from repro.sim.engine import simulate_des
from repro.sim.fastsim import simulate_fast

__all__ = ["SweepResults", "run_sweep", "run_fault_sweep", "FaultSweepResults"]


@dataclasses.dataclass(frozen=True)
class SweepResults:
    """Makespans for every algorithm over a grid.

    ``makespans[algo]`` has shape ``(num_platforms, num_errors,
    repetitions)``; ``platforms`` matches axis 0 and ``grid.errors``
    axis 1.  Quarantined cells (see :mod:`repro.experiments.resilient`)
    hold NaN.
    """

    grid: ExperimentGrid
    algorithms: tuple[str, ...]
    platforms: tuple[PlatformPoint, ...]
    makespans: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        expected = (len(self.platforms), len(self.grid.errors), self.grid.repetitions)
        for algo, tensor in self.makespans.items():
            if tensor.shape != expected:
                raise ValueError(
                    f"{algo}: tensor shape {tensor.shape} != expected {expected}"
                )

    def platform_mask(
        self, predicate: typing.Callable[[PlatformPoint], bool]
    ) -> np.ndarray:
        """Boolean mask over the platform axis."""
        return np.array([predicate(p) for p in self.platforms], dtype=bool)

    def select(self, predicate: typing.Callable[[PlatformPoint], bool]) -> "SweepResults":
        """Restrict to platforms satisfying ``predicate`` (Fig 4(b) style)."""
        mask = self.platform_mask(predicate)
        if not mask.any():
            raise ValueError("predicate selects no platforms")
        return SweepResults(
            grid=self.grid,
            algorithms=self.algorithms,
            platforms=tuple(p for p, keep in zip(self.platforms, mask) if keep),
            makespans={a: t[mask] for a, t in self.makespans.items()},
        )

    @property
    def reference(self) -> str:
        """The normalization baseline — RUMR when present, else algo 0."""
        return "RUMR" if "RUMR" in self.algorithms else self.algorithms[0]


@lru_cache(maxsize=256)
def _grid_topology(spec: str):
    """Parse a grid's topology spec once; ``None`` for the star baseline.

    The batch engines model exactly the paper's star, so ``None`` keeps a
    grid batch-eligible; a non-``None`` topology reroutes the scalar rung
    and disqualifies the batch engines.
    """
    topo = make_topology(spec)
    return None if topo.kind == "star" else topo


def _grid_supports_batch(grid: ExperimentGrid) -> bool:
    """Whether the batch engines implement this grid's cells.

    The batch engine draws truncated-normal multiplicative factors — the
    ``normal`` kind (and trivially ``none``).  ``uniform`` and ``drifting``
    grids fall back to the scalar path for every algorithm, as do
    non-star topology grids (the batch engines model only the paper's
    serialized star; chains, trees and shared-bandwidth stars take the
    scalar/DES rung via the routing ladder).
    """
    return grid.error_kind in ("normal", "none") and (
        _grid_topology(grid.topology) is None
    )


def _engine_map(
    grid: ExperimentGrid, algorithms: tuple[str, ...], batch_static: bool
) -> dict[str, str]:
    """The engine every algorithm's cells take on this grid, decided once.

    Static algorithms go to the whole-grid pass (``static-batch``), every
    other registry algorithm to the lockstep pass (``dynbatch``); with
    ``batch_static`` off, or on a grid the batch engines do not implement,
    everything takes the ``scalar`` per-platform loop.  The engine names
    are :class:`repro.obs.SweepStats`' routing keys.
    """
    if not (batch_static and _grid_supports_batch(grid)):
        return {a: "scalar" for a in algorithms}
    return {
        a: "static-batch" if is_static_algorithm(a) else "dynbatch"
        for a in algorithms
    }


def _cell_seeds(grid: ExperimentGrid, p_idx: int, e_idx: int) -> list[int]:
    """The per-repetition stream keys of one (platform, error) cell.

    One seed per repetition, shared by all algorithms (paired comparisons)
    and by every engine; simulate_fast and simulate_static_cells spawn the
    same independent comm/comp streams from it.  Memoized on the grid's
    seed coordinates — every engine path re-derives the same cell seeds,
    and spawning the underlying PCG64 streams dominates an otherwise
    cheap lookup.
    """
    return list(_cell_seeds_cached(grid.seed, grid.repetitions, p_idx, e_idx))


@lru_cache(maxsize=4096)
def _cell_seeds_cached(
    grid_seed: int, repetitions: int, p_idx: int, e_idx: int
) -> tuple[int, ...]:
    return tuple(
        int(stream_for(grid_seed, p_idx, e_idx, rep).integers(0, 2**63 - 1))
        for rep in range(repetitions)
    )


def _scalar_cell(
    platform, grid: ExperimentGrid, scheduler, error: float, seeds, fault_model
) -> np.ndarray:
    """One (platform, error, algorithm) cell on the scalar engine.

    The shared bottom rung of the engine-fallback ladder: exactly the
    computation ``batch_static=False`` performs for the cell, so a
    fallen-back cell is bitwise identical to a ``--no-batch`` run's.
    Topology grids route here too: chains and trees keep the fast
    engine's closed-form recurrences, shared-bandwidth stars (which have
    none) run on the DES engine.
    """
    topo = _grid_topology(grid.topology)
    out = np.empty(len(seeds))
    for rep, seed in enumerate(seeds):
        model = make_error_model(grid.error_kind, error, mode=grid.error_mode)
        if topo is not None and topo.kind == "sharedbw":
            out[rep] = simulate_des(
                platform,
                grid.total_work,
                scheduler,
                model,
                seed=seed,
                faults=fault_model,
                topology=topo,
            ).makespan
        else:
            out[rep] = simulate_fast(
                platform,
                grid.total_work,
                scheduler,
                model,
                seed=seed,
                collect_records=False,
                faults=fault_model,
                topology=topo,
            ).makespan
    return out


def _supervised_scalar_cell(
    grid: ExperimentGrid,
    platform,
    name: str,
    p_idx: int,
    e_idx: int,
    seeds: list[int],
    fault_model,
    supervisor: CellSupervisor,
    stats,
) -> np.ndarray:
    """One scalar-engine cell under ``supervisor`` (retry → NaN quarantine).

    ``stats`` receives the cell's wall time; only the in-process path
    passes it — pool workers cannot share the parent's collector.
    """
    error = grid.errors[e_idx]
    scheduler = make_scheduler(name, error)
    t0 = time.perf_counter() if stats is not None else 0.0
    out = supervisor.run_cell(
        lambda: _scalar_cell(platform, grid, scheduler, error, seeds, fault_model),
        algorithm=name,
        platform_index=p_idx,
        error_index=e_idx,
        engine="scalar",
        seed=seeds[0],
        shape=(grid.repetitions,),
    )
    if stats is not None:
        stats.time_cell(
            name, p_idx, e_idx, "scalar", grid.repetitions, time.perf_counter() - t0
        )
    return out


def _run_platform(
    grid: ExperimentGrid,
    point: PlatformPoint,
    p_idx: int,
    algorithms: tuple[str, ...],
    routes: dict[str, str],
    supervisor: CellSupervisor,
    stats=None,
) -> np.ndarray:
    """Worker: the *scalar-engine* simulations for one platform.

    Returns an array of shape (num_errors, repetitions, num_algorithms).
    Only the algorithms ``routes`` (see :func:`_engine_map`) sends to
    ``scalar`` run here; the other slots hold garbage until the caller's
    batch passes overwrite them.  Every cell runs through ``supervisor``,
    so no cell failure escapes this function.
    """
    platform = point.build()
    out = np.empty((len(grid.errors), grid.repetitions, len(algorithms)))
    fault_model = make_fault_model(grid.fault) if grid.has_faults else None
    scalar = [i for i, a in enumerate(algorithms) if routes[a] == "scalar"]
    for e_idx in range(len(grid.errors)):
        seeds = _cell_seeds(grid, p_idx, e_idx)
        for a_idx in scalar:
            out[e_idx, :, a_idx] = _supervised_scalar_cell(
                grid, platform, algorithms[a_idx], p_idx, e_idx, seeds,
                fault_model, supervisor, stats,
            )
    return out


# Process-pool plumbing: the grid, platform list, algorithm tuple and
# retry policy are shipped to each worker exactly once via the
# initializer; tasks are then bare platform indices instead of fat
# pickled tuples.
_POOL_CTX: (
    tuple[
        ExperimentGrid, tuple[PlatformPoint, ...], tuple[str, ...],
        dict[str, str], RetryPolicy,
    ]
    | None
) = None


def _pool_init(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    algorithms: tuple[str, ...],
    routes: dict[str, str],
    policy: RetryPolicy,
) -> None:
    global _POOL_CTX
    _POOL_CTX = (grid, platforms, algorithms, routes, policy)


def _pool_task(p_idx: int):
    """One platform shard in a pool worker.

    Runs under the worker's own :class:`CellSupervisor` (the parent's
    cannot cross the process boundary) and ships the block plus the
    supervisor's ledger entries and counters back for the parent to
    absorb.
    """
    assert _POOL_CTX is not None, "pool worker used without initializer"
    grid, platforms, algorithms, routes, policy = _POOL_CTX
    supervisor = CellSupervisor(policy=policy)
    block = _run_platform(
        grid, platforms[p_idx], p_idx, algorithms, routes, supervisor
    )
    return block, supervisor.ledger.entries, supervisor.counters()


def _kill_pool_workers(pool) -> None:
    """Forcibly terminate a pool's worker processes.

    Used when a shard overruns its timeout or the pool broke: a plain
    ``shutdown(wait=False)`` leaves hung workers alive, and the
    interpreter would join them at exit.  Reaches into the private
    process map — there is no public kill switch — and tolerates its
    absence.
    """
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 — best-effort cleanup
            pass


def _supervised_pool_run(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    algorithms: tuple[str, ...],
    routes: dict[str, str],
    n_jobs: int,
    pending: list[int],
    policy: RetryPolicy,
    supervisor: CellSupervisor,
    stats,
    on_block: typing.Callable[[int, np.ndarray], None],
) -> list[int]:
    """Run platform shards on a supervised process pool.

    Shards are harvested in submission order; each waits at most
    ``policy.cell_timeout_s`` from the moment it is polled.  A
    ``BrokenProcessPool`` restarts the pool once (completed shards are
    salvaged first); a second break, or any shard timeout, abandons the
    pool — the returned list holds the shards still pending, which the
    caller must run in-process.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    remaining = list(pending)
    restarted = False
    while remaining:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(n_jobs, len(remaining)),
            initializer=_pool_init,
            initargs=(grid, platforms, algorithms, routes, policy),
        )
        broken = timed_out = False
        futures: dict[int, concurrent.futures.Future] = {}
        try:
            try:
                futures = {p: pool.submit(_pool_task, p) for p in remaining}
            except BrokenProcessPool:
                broken = True
            for p_idx in () if broken else list(remaining):
                try:
                    block, entries, counters = futures[p_idx].result(
                        timeout=policy.cell_timeout_s
                    )
                except BrokenProcessPool:
                    broken = True
                    break
                except TimeoutError:
                    timed_out = True
                    break
                supervisor.absorb(entries, counters)
                on_block(p_idx, block)
                remaining.remove(p_idx)
            if broken or timed_out:
                # Salvage shards that finished before the pool went down.
                for p_idx in list(remaining):
                    fut = futures.get(p_idx)
                    if fut is None or not fut.done() or fut.cancelled():
                        continue
                    try:
                        block, entries, counters = fut.result(timeout=0)
                    except Exception:  # noqa: BLE001 — salvage is best-effort
                        continue
                    supervisor.absorb(entries, counters)
                    on_block(p_idx, block)
                    remaining.remove(p_idx)
        finally:
            if broken or timed_out:
                # Kill before shutdown: shutdown(wait=False) drops the
                # executor's process map, and hung workers it leaves
                # behind would block the interpreter's exit join.
                _kill_pool_workers(pool)
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        if not remaining:
            break
        if timed_out:
            # A hung shard cannot be preempted remotely; finish the rest
            # in-process where the supervisor can at least bound retries.
            if stats is not None:
                stats.pool_timeouts += 1
            break
        if broken:
            if not restarted:
                restarted = True
                if stats is not None:
                    stats.pool_restarts += 1
                continue
            if stats is not None:
                stats.pool_degradations += 1
            break
        break  # unreachable: no failure implies remaining is empty
    return remaining


# The global batch passes share one grow-only arena across every merged
# lockstep call (and across sweeps in the same process, e.g. the fault
# sweep's per-scenario runs): state tensors are reused instead of
# reallocated per cell group.  Only the parent process touches it — the
# platform pool runs scalar cells exclusively.
_SWEEP_ARENA = BatchArena()


#: Checkpoint shard of each global batch pass.
_PASS_SHARDS = {"static-batch": "staticgrid", "dynbatch": "lockstep"}


#: A batch-pass cell's place in the tensors: (algorithm, platform index,
#: error index, error).
_Target = tuple[str, int, int, float]


def _static_cells(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    names: list[str],
    fault_model,
    supervisor: CellSupervisor,
) -> typing.Iterator[tuple[_Target, "StaticCell | None"]]:
    """The static pass's cells: plans solved and compiled once per
    (platform, algorithm), shared by every error level and repetition.

    A plan that fails to *solve* never enters the pass: its cells come
    out as ``None`` (counted as fallbacks) and take the scalar engine.
    """
    for p_idx, point in enumerate(platforms):
        platform = point.build()
        plans: dict[str, typing.Any] = {}
        for name in names:
            scheduler = make_scheduler(name, 0.0)
            try:
                plans[name] = compile_static_plan(
                    platform, scheduler.static_plan(platform, grid.total_work)
                )
            except Exception:  # noqa: BLE001 — first rung of the ladder
                plans[name] = None
                supervisor.count_fallback()
        for e_idx, error in enumerate(grid.errors):
            seeds = tuple(_cell_seeds(grid, p_idx, e_idx))
            magnitude = error if grid.error_kind != "none" else 0.0
            for name in names:
                plan = plans[name]
                cell = None if plan is None else StaticCell(
                    platform=platform,
                    plan=plan,
                    error=magnitude,
                    seeds=seeds,
                    faults=fault_model,
                )
                yield (name, p_idx, e_idx, error), cell


def _dynamic_cells(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    names: list[str],
    fault_model,
) -> typing.Iterator[tuple[_Target, DynamicCell]]:
    """The lockstep pass's cells: one per (platform, error, algorithm)."""
    for p_idx, point in enumerate(platforms):
        platform = point.build()
        for e_idx, error in enumerate(grid.errors):
            seeds = tuple(_cell_seeds(grid, p_idx, e_idx))
            magnitude = error if grid.error_kind != "none" else 0.0
            for name in names:
                cell = DynamicCell(
                    platform=platform,
                    scheduler=make_scheduler(name, error),
                    total_work=grid.total_work,
                    error=magnitude,
                    seeds=seeds,
                    faults=fault_model,
                )
                yield (name, p_idx, e_idx, error), cell


def _run_batch_pass(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    engine: str,
    names: list[str],
    tensors: dict[str, np.ndarray],
    supervisor: CellSupervisor,
    stats=None,
    planes: FaultPlaneCache | None = None,
) -> None:
    """Fill ``names``' tensors through one global batch pass of ``engine``.

    Builds one cell per (platform, error, algorithm) with the *same*
    per-cell seeds the scalar path would use — fault model included —
    and hands the whole grid to one engine call: ``static-batch`` stacks
    the cells into one tensor per plan-length class
    (:func:`simulate_static_cells`), ``dynbatch`` merges compatible cells
    into shared lockstep calls drawing their state from the sweep arena
    (:func:`simulate_dynamic_cells`).  Fault planes come from ``planes``,
    shared by both passes.

    The merged call is retried per the supervisor's policy; if it keeps
    failing, the pass degrades to per-cell engine calls — the same
    computation, one cell per call — each under the full ladder (retry →
    scalar fallback → NaN quarantine), so one poisoned cell cannot take
    down every batch result.
    """
    fault_model = make_fault_model(grid.fault) if grid.has_faults else None
    if engine == "static-batch":
        build = partial(_static_cells, supervisor=supervisor)
        simulate = partial(simulate_static_cells, mode=grid.error_mode)
    else:
        build = _dynamic_cells
        simulate = partial(
            simulate_dynamic_cells, mode=grid.error_mode, arena=_SWEEP_ARENA
        )
    entries = list(build(grid, platforms, names, fault_model))
    targets = [target for target, cell in entries if cell is not None]
    cells = [cell for _, cell in entries if cell is not None]
    perf = {} if stats is not None else None
    results, exc = supervisor.attempt(
        lambda: simulate(cells, perf=perf, planes=planes), grid.seed
    )
    if exc is not None:
        results = [
            supervisor.run_cell(
                lambda cell=cell: simulate([cell])[0],
                fallback=lambda name=name, error=error, cell=cell: _scalar_cell(
                    cell.platform, grid, make_scheduler(name, error), error,
                    list(cell.seeds), fault_model,
                ),
                algorithm=name,
                platform_index=p_idx,
                error_index=e_idx,
                engine=engine,
                seed=cell.seeds[0],
                shape=(grid.repetitions,),
            )
            for cell, (name, p_idx, e_idx, error) in zip(cells, targets)
        ]
    for (name, p_idx, e_idx, _error), makespans in zip(targets, results):
        tensors[name][p_idx, e_idx, :] = makespans
    for (name, p_idx, e_idx, _error), cell in entries:
        if cell is None:
            tensors[name][p_idx, e_idx, :] = _supervised_scalar_cell(
                grid, platforms[p_idx].build(), name, p_idx, e_idx,
                _cell_seeds(grid, p_idx, e_idx), fault_model, supervisor, stats,
            )
    if stats is not None and perf:
        stats.absorb_fault_perf(perf)


def _load_pass_shard(
    ckpt: CheckpointStore, engine: str, names: list[str], shape: tuple[int, ...]
) -> np.ndarray | None:
    """A batch pass's checkpointed ``(names, *shape)`` block, if it holds
    exactly ``names``; ``None`` when absent or written for other names."""
    shard = ckpt.load(_PASS_SHARDS[engine])
    if shard is None:
        return None
    stored = [str(n) for n in shard.get("names", np.array([]))]
    block = shard.get("block")
    if stored != names or block is None or block.shape != (len(names), *shape):
        return None
    return block


def run_sweep(
    grid: ExperimentGrid,
    algorithms: typing.Sequence[str] = PAPER_ALGORITHMS,
    n_jobs: int = 1,
    progress: typing.Callable[[int, int], None] | None = None,
    batch_static: bool = True,
    stats=None,
    retry: RetryPolicy | None = None,
    checkpoint_dir: "str | os.PathLike | None" = None,
    resume: bool = False,
    failures: FailureLedger | None = None,
    tracer=None,
) -> SweepResults:
    """Run the full sweep and return the makespan tensors.

    Parameters
    ----------
    grid:
        The experiment specification.
    algorithms:
        Registry names to run (default: the paper's seven).
    n_jobs:
        Process-pool width; 1 (default) runs in-process, ``-1`` uses one
        worker per CPU.
    progress:
        Optional callback ``(platforms_done, platforms_total)``.  The
        done count is monotone even under retries, pool restarts and
        resume — resumed shards are reported done up front.
    batch_static:
        Route static algorithms through the whole-grid batch pass and
        every other algorithm through the lockstep pass (the default; see
        the module docstring and :func:`_engine_map`).  ``False`` forces
        the scalar engine for every algorithm — CLI ``--no-batch``, mainly
        for benchmarking and equivalence tests.
    stats:
        Optional :class:`repro.obs.SweepStats` collector: engine-routing
        counts, per-cell wall times (in-process runs only — pool workers
        cannot share the parent's collector), lockstep and total wall
        time, plus resilience tallies (retries, fallbacks, quarantines,
        resumed cells, pool supervision).  Surfaced by ``repro stats``.
    retry:
        The :class:`~repro.experiments.resilient.RetryPolicy` guarding
        every cell (default: three attempts per ladder rung with
        exponential, deterministically jittered backoff).
    checkpoint_dir:
        When given, completed platform shards (and the lockstep pass)
        are flushed to ``<checkpoint_dir>/partial/<key>/`` as atomic,
        content-hashed files; the directory is cleared once the sweep
        finishes.  :func:`~repro.experiments.cache.cached_sweep` passes
        its cache directory automatically.
    resume:
        Load surviving checkpoint shards before running — only the
        unfinished remainder is recomputed (``repro sweep --resume``).
        Shards failing their content hash are discarded and recomputed.
    failures:
        Optional :class:`~repro.experiments.resilient.FailureLedger`
        receiving a :class:`CellFailure` entry per quarantined cell.
    tracer:
        Optional :class:`repro.obs.Tracer` receiving harness-level
        ``engine_fallback`` / ``cell_quarantined`` events.
    """
    sweep_t0 = time.perf_counter()
    algorithms = tuple(algorithms)
    if len(set(algorithms)) != len(algorithms):
        raise ValueError("duplicate algorithm names")
    if n_jobs == -1:
        n_jobs = os.cpu_count() or 1
    elif n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    policy = retry if retry is not None else RetryPolicy()
    ledger = failures if failures is not None else FailureLedger()
    supervisor = CellSupervisor(
        policy=policy, stats=stats, ledger=ledger, tracer=tracer
    )
    platforms = tuple(grid.platforms())
    shape = (len(platforms), len(grid.errors), grid.repetitions)
    tensors = {a: np.empty(shape) for a in algorithms}

    routes = _engine_map(grid, algorithms, batch_static)
    passes = {
        engine: [a for a in algorithms if routes[a] == engine]
        for engine in _PASS_SHARDS
    }
    # Columns the per-platform loop is responsible for (the global batch
    # passes overwrite the rest); checkpoint shards record this mask so a
    # shard written under a different routing is never trusted for
    # columns it did not actually compute.
    loop_valid = np.array([routes[a] == "scalar" for a in algorithms], dtype=bool)
    loop_algo_count = int(loop_valid.sum())
    # When the global passes cover every algorithm — the normal case —
    # the per-platform loop has nothing left to do; skip it (and the
    # pool) entirely.
    if not loop_algo_count:
        n_jobs = 0

    if stats is not None:
        num_cells = len(platforms) * len(grid.errors)
        for a in algorithms:
            stats.count_routing(routes[a], num_cells, grid.repetitions)

    # -- checkpoint store and resume ---------------------------------------
    key = sweep_key(grid, algorithms)
    ckpt = (
        CheckpointStore(checkpoint_dir, f"sweep-{grid.name}-{key}")
        if checkpoint_dir is not None
        else None
    )
    resumed_blocks: dict[int, np.ndarray] = {}
    resumed_passes: dict[str, np.ndarray] = {}
    if ckpt is not None and resume:
        block_shape = (len(grid.errors), grid.repetitions, len(algorithms))
        for p_idx in range(len(platforms)):
            shard = ckpt.load(f"platform-{p_idx:05d}")
            if shard is None:
                continue
            block, valid = shard.get("block"), shard.get("valid")
            if (
                block is None
                or valid is None
                or block.shape != block_shape
                or valid.shape != (len(algorithms),)
                or not np.all(valid.astype(bool) | ~loop_valid)
            ):
                continue
            resumed_blocks[p_idx] = block
        for engine, names in passes.items():
            block = _load_pass_shard(ckpt, engine, names, shape) if names else None
            if block is not None:
                resumed_passes[engine] = block
        if stats is not None:
            stats.cells_resumed += (
                len(resumed_blocks) * len(grid.errors) * loop_algo_count
            )
        # Quarantine records of resumed shards would otherwise be lost —
        # their NaNs are being reused, so their ledger entries are too.
        for entry in ckpt.load_ledger():
            engine = routes.get(entry.algorithm, "scalar")
            if engine in resumed_passes or (
                engine == "scalar" and entry.platform_index in resumed_blocks
            ):
                ledger.add(entry)

    # -- the per-platform loop ---------------------------------------------
    total = len(platforms)
    done = 0

    def fill(p_idx: int, block: np.ndarray) -> None:
        for a_idx, algo in enumerate(algorithms):
            tensors[algo][p_idx] = block[:, :, a_idx]

    def on_block(p_idx: int, block: np.ndarray) -> None:
        nonlocal done
        fill(p_idx, block)
        if ckpt is not None:
            ckpt.save(f"platform-{p_idx:05d}", block=block, valid=loop_valid)
            ckpt.save_ledger(ledger)
        done += 1
        if progress is not None:
            progress(done, total)

    if n_jobs == 0:
        done = total
        if progress is not None:
            progress(total, total)
    else:
        for p_idx, block in sorted(resumed_blocks.items()):
            fill(p_idx, block)
            done += 1
        if resumed_blocks and progress is not None:
            progress(done, total)
        pending = [p for p in range(total) if p not in resumed_blocks]
        if n_jobs > 1 and pending:
            pending = _supervised_pool_run(
                grid, platforms, algorithms, routes,
                n_jobs, pending, policy, supervisor, stats, on_block,
            )
        for p_idx in pending:
            block = _run_platform(
                grid, platforms[p_idx], p_idx, algorithms, routes, supervisor,
                stats=stats,
            )
            on_block(p_idx, block)

    # -- the global batch passes: static whole-grid, then merged lockstep ---
    # Both passes simulate every algorithm of a (platform, error) cell on
    # the same seeds, so each fault plane is realized once and shared; the
    # cache dies with this call.
    planes = FaultPlaneCache() if grid.has_faults else None
    for engine, names in passes.items():
        if not names:
            continue
        resumed = resumed_passes.get(engine)
        if resumed is not None:
            for i, name in enumerate(names):
                tensors[name][...] = resumed[i]
            if stats is not None:
                stats.cells_resumed += len(names) * len(platforms) * len(grid.errors)
            continue
        t0 = time.perf_counter()
        _run_batch_pass(
            grid, platforms, engine, names, tensors, supervisor,
            stats=stats, planes=planes,
        )
        if stats is not None:
            if engine == "static-batch":
                stats.staticgrid_wall_s += time.perf_counter() - t0
            else:
                stats.lockstep_wall_s += time.perf_counter() - t0
        if ckpt is not None:
            ckpt.save(
                _PASS_SHARDS[engine],
                block=np.stack([tensors[n] for n in names]),
                names=np.array(names),
            )
            ckpt.save_ledger(ledger)

    # -- completion: persist the ledger, clear the checkpoints --------------
    if ckpt is not None:
        final = pathlib.Path(checkpoint_dir) / f"failures-sweep-{grid.name}-{key}.json"
        if len(ledger):
            tmp = final.with_name(final.name + f".tmp-{os.getpid()}")
            final.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(ledger.to_json())
            os.replace(tmp, final)
        elif final.exists():
            final.unlink()
        ckpt.discard()

    if stats is not None:
        stats.total_wall_s += time.perf_counter() - sweep_t0
    return SweepResults(
        grid=grid, algorithms=algorithms, platforms=platforms, makespans=tensors
    )


@dataclasses.dataclass(frozen=True)
class FaultSweepResults:
    """One sweep per fault scenario, sharing grid, seeds and algorithms.

    ``sweeps[spec]`` holds the :class:`SweepResults` of the grid with
    ``fault=spec``; the first spec is conventionally ``"none"`` so
    degradation metrics have a baseline.  Because each scenario's grid
    shares the base grid's seed, the (platform, error, repetition) cells
    are paired across scenarios — the same common-random-numbers trick the
    algorithm comparisons use, applied to the fault axis.
    """

    base_grid: ExperimentGrid
    fault_specs: tuple[str, ...]
    algorithms: tuple[str, ...]
    sweeps: dict[str, SweepResults]

    def __post_init__(self) -> None:
        missing = [s for s in self.fault_specs if s not in self.sweeps]
        if missing:
            raise ValueError(f"fault specs without results: {missing}")


def run_fault_sweep(
    grid: ExperimentGrid,
    fault_specs: typing.Sequence[str],
    algorithms: typing.Sequence[str] = PAPER_ALGORITHMS,
    n_jobs: int = 1,
    progress: typing.Callable[[int, int], None] | None = None,
    directory: "str | os.PathLike | None" = None,
    resume: bool = False,
) -> FaultSweepResults:
    """Run the same sweep under several fault scenarios.

    ``fault_specs`` are fault spec strings (see
    :func:`repro.errors.make_fault_model`); ``"none"`` is prepended when
    absent so the result always carries a fault-free baseline.  When
    ``directory`` is given each scenario goes through the sweep cache
    (scenarios hash to distinct keys because ``fault`` is part of the
    grid) and, with ``resume=True``, picks up surviving checkpoint
    shards of an interrupted run.
    """
    specs = tuple(fault_specs)
    if "none" not in specs:
        specs = ("none",) + specs
    if len(set(specs)) != len(specs):
        raise ValueError("duplicate fault specs")
    algorithms = tuple(algorithms)
    sweeps: dict[str, SweepResults] = {}
    for spec in specs:
        fault_grid = dataclasses.replace(grid, fault=spec)
        if directory is not None:
            from repro.experiments.cache import cached_sweep

            sweeps[spec] = cached_sweep(
                fault_grid, algorithms, directory, n_jobs=n_jobs,
                progress=progress, resume=resume,
            )
        else:
            sweeps[spec] = run_sweep(
                fault_grid, algorithms=algorithms, n_jobs=n_jobs, progress=progress
            )
    return FaultSweepResults(
        base_grid=grid, fault_specs=specs, algorithms=algorithms, sweeps=sweeps
    )


def eta_progress(stream=None) -> typing.Callable[[int, int], None]:
    """A ready-made progress callback printing rate and ETA lines."""
    import sys

    stream = stream or sys.stderr
    start = time.monotonic()

    def callback(done: int, total: int) -> None:
        elapsed = time.monotonic() - start
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = (total - done) / rate if rate > 0 else float("inf")
        stream.write(
            f"\r[{done}/{total} platforms] {elapsed:6.1f}s elapsed, "
            f"~{remaining:6.1f}s left "
        )
        stream.flush()
        if done == total:
            stream.write("\n")

    return callback
