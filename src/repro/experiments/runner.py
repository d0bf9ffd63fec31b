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
error level and repetition.  Batch-dynamic algorithms — every in-tree
dynamic scheduler: Factoring, WeightedFactoring, FSC, RUMR and its
variants, AdaptiveRUMR — have no fixed plan but a pure-arithmetic
decision rule, so *their* repetition axes advance in lockstep through
:func:`~repro.sim.dynbatch.simulate_dynamic_cells` — one global pass
merging every (platform, error) cell, reusing one grow-only
:class:`~repro.sim.dynbatch.BatchArena` across the merged calls.  Fault
grids ride the same passes: both batch engines realize per-repetition
fault schedules with the scalar engine's exact semantics, gated per
scheduler by :attr:`~repro.core.base.Scheduler.batch_supports_faults`,
and one :class:`~repro.errors.faults.FaultPlaneCache` per sweep realizes
each (platform, seeds) fault plane once for every algorithm of both
passes.
All paths use *the same per-cell seeds*, so the cross-algorithm pairing
is untouched.  At ``error = 0`` the batch paths agree with the scalar
engine bit-for-bit; at ``error > 0`` their makespans are
distributionally identical but not bitwise (see ``repro.sim.batch`` /
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
from functools import lru_cache

import numpy as np

from repro.core.registry import is_batch_dynamic_algorithm, make_scheduler
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


def _batch_eligible(grid: ExperimentGrid, scheduler) -> bool:
    """Whether one scheduler's cells may take a batch path on this grid.

    Fault grids additionally require the scheduler to declare
    :attr:`~repro.core.base.Scheduler.batch_supports_faults` — the explicit
    opt-in mirroring ``is_batch_dynamic``.  Every in-tree scheduler sets
    it, so fault cells normally batch; the gate still guards third-party
    schedulers that have not made the claim.
    """
    return not grid.has_faults or scheduler.batch_supports_faults


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


def _run_platform(
    grid: ExperimentGrid,
    point: PlatformPoint,
    p_idx: int,
    algorithms: tuple[str, ...],
    batch_static: bool = True,
    batch_dynamic: bool = True,
    stats=None,
    supervisor: CellSupervisor | None = None,
) -> np.ndarray:
    """Worker: the *scalar-engine* simulations for one platform.

    Returns an array of shape (num_errors, repetitions, num_algorithms).
    Algorithms covered by a global batch pass — static algorithms under
    ``batch_static`` (the grid pass) and batch-dynamic algorithms under
    ``batch_dynamic`` (the lockstep pass) — are *skipped* here: their
    slots hold garbage until the caller's pass overwrites them.  Because
    every in-tree scheduler takes one of the batch paths, this loop only
    has work when a flag is off, the grid's error model is unsupported,
    or a third-party scheduler declines a batch contract.

    Every cell runs through ``supervisor`` (retry → NaN quarantine; a
    fresh default supervisor is built when none is given), so no cell
    failure escapes this function.  ``stats`` (a
    :class:`repro.obs.SweepStats`) receives per-cell wall times; only the
    in-process path passes it — pool workers cannot share the parent's
    collector.
    """
    if supervisor is None:
        supervisor = CellSupervisor()
    platform = point.build()
    out = np.empty((len(grid.errors), grid.repetitions, len(algorithms)))
    fault_model = make_fault_model(grid.fault) if grid.has_faults else None

    skipped: set[int] = set()
    if _grid_supports_batch(grid):
        for a_idx, name in enumerate(algorithms):
            scheduler = make_scheduler(name, 0.0)
            if not _batch_eligible(grid, scheduler):
                continue
            if (batch_static and scheduler.is_static) or (
                batch_dynamic and scheduler.is_batch_dynamic
            ):
                skipped.add(a_idx)

    dynamic_indices = [i for i in range(len(algorithms)) if i not in skipped]
    if not dynamic_indices:
        return out
    for e_idx, error in enumerate(grid.errors):
        seeds = _cell_seeds(grid, p_idx, e_idx)
        schedulers = [(i, make_scheduler(algorithms[i], error)) for i in dynamic_indices]
        for a_idx, scheduler in schedulers:
            t0 = time.perf_counter() if stats is not None else 0.0
            out[e_idx, :, a_idx] = supervisor.run_cell(
                lambda scheduler=scheduler, error=error: _scalar_cell(
                    platform, grid, scheduler, error, seeds, fault_model
                ),
                algorithm=algorithms[a_idx],
                platform_index=p_idx,
                error_index=e_idx,
                engine="scalar",
                seed=seeds[0],
                shape=(grid.repetitions,),
            )
            if stats is not None:
                stats.time_cell(
                    algorithms[a_idx], p_idx, e_idx, "scalar",
                    grid.repetitions, time.perf_counter() - t0,
                )
    return out


# Process-pool plumbing: the grid, platform list, algorithm tuple and
# retry policy are shipped to each worker exactly once via the
# initializer; tasks are then bare platform indices instead of fat
# pickled tuples.
_POOL_CTX: (
    tuple[
        ExperimentGrid, tuple[PlatformPoint, ...], tuple[str, ...],
        bool, bool, RetryPolicy,
    ]
    | None
) = None


def _pool_init(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    algorithms: tuple[str, ...],
    batch_static: bool,
    batch_dynamic: bool,
    policy: RetryPolicy,
) -> None:
    global _POOL_CTX
    _POOL_CTX = (grid, platforms, algorithms, batch_static, batch_dynamic, policy)


def _pool_task(p_idx: int):
    """One platform shard in a pool worker.

    Runs under the worker's own :class:`CellSupervisor` (the parent's
    cannot cross the process boundary) and ships the block plus the
    supervisor's ledger entries and counters back for the parent to
    absorb.
    """
    assert _POOL_CTX is not None, "pool worker used without initializer"
    grid, platforms, algorithms, batch_static, batch_dynamic, policy = _POOL_CTX
    supervisor = CellSupervisor(policy=policy)
    block = _run_platform(
        grid, platforms[p_idx], p_idx, algorithms, batch_static, batch_dynamic,
        supervisor=supervisor,
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
    batch_static: bool,
    batch_dynamic: bool,
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
            initargs=(grid, platforms, algorithms, batch_static, batch_dynamic, policy),
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


def _run_static_batch_pass(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    names: list[str],
    tensors: dict[str, np.ndarray],
    supervisor: CellSupervisor | None = None,
    stats=None,
    planes: FaultPlaneCache | None = None,
) -> None:
    """Fill the static algorithms' tensors via one whole-grid pass.

    Solves and compiles each plan once per (platform, algorithm), builds
    one :class:`~repro.sim.batch.StaticCell` per (platform, error,
    algorithm) with the *same* per-cell seeds the scalar path would use
    — fault model included — and hands the entire grid to one
    :func:`simulate_static_cells` call, which stacks the cells into one
    tensor per plan-length class.  Fault planes come from ``planes``,
    shared with the lockstep pass.

    With a ``supervisor``, the merged pass is retried per the policy; if
    it keeps failing, the pass degrades to per-cell grid calls — the
    same computation, one cell per tensor — each under the full ladder
    (retry → scalar fallback → NaN quarantine), so one poisoned cell
    cannot take down every static result.  A plan that fails to *solve*
    never enters the pass: its cells take the scalar engine directly,
    counted as fallbacks.
    """
    fault_model = make_fault_model(grid.fault) if grid.has_faults else None
    cells: list[StaticCell] = []
    targets: list[tuple[str, int, int, float]] = []
    scalar_jobs: list[tuple[str, int, int, float, typing.Any, list[int]]] = []
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
                if supervisor is not None:
                    supervisor.count_fallback()
        for e_idx, error in enumerate(grid.errors):
            seeds = _cell_seeds(grid, p_idx, e_idx)
            magnitude = error if grid.error_kind != "none" else 0.0
            for name in names:
                plan = plans[name]
                if plan is None:
                    scalar_jobs.append((name, p_idx, e_idx, error, platform, seeds))
                    continue
                cells.append(
                    StaticCell(
                        platform=platform,
                        plan=plan,
                        error=magnitude,
                        seeds=tuple(seeds),
                        faults=fault_model,
                    )
                )
                targets.append((name, p_idx, e_idx, error))
    perf = {} if stats is not None else None
    if supervisor is None:
        results = simulate_static_cells(
            cells, mode=grid.error_mode, perf=perf, planes=planes
        )
    else:
        results, exc = supervisor.attempt(
            lambda: simulate_static_cells(
                cells, mode=grid.error_mode, perf=perf, planes=planes
            ),
            grid.seed,
        )
        if exc is not None:
            results = [
                supervisor.run_cell(
                    lambda cell=cell: simulate_static_cells(
                        [cell], mode=grid.error_mode
                    )[0],
                    fallback=lambda name=name, error=error, cell=cell: _scalar_cell(
                        cell.platform, grid, make_scheduler(name, error), error,
                        list(cell.seeds), fault_model,
                    ),
                    algorithm=name,
                    platform_index=p_idx,
                    error_index=e_idx,
                    engine="static-batch",
                    seed=cell.seeds[0],
                    shape=(grid.repetitions,),
                )
                for cell, (name, p_idx, e_idx, error) in zip(cells, targets)
            ]
    for (name, p_idx, e_idx, _error), makespans in zip(targets, results):
        tensors[name][p_idx, e_idx, :] = makespans
    for name, p_idx, e_idx, error, platform, seeds in scalar_jobs:
        t0 = time.perf_counter() if stats is not None else 0.0
        cell_result = (
            _scalar_cell(
                platform, grid, make_scheduler(name, error), error, seeds, fault_model
            )
            if supervisor is None
            else supervisor.run_cell(
                lambda name=name, error=error, platform=platform, seeds=seeds:
                    _scalar_cell(
                        platform, grid, make_scheduler(name, error), error, seeds,
                        fault_model,
                    ),
                algorithm=name,
                platform_index=p_idx,
                error_index=e_idx,
                engine="scalar",
                seed=seeds[0],
                shape=(grid.repetitions,),
            )
        )
        tensors[name][p_idx, e_idx, :] = cell_result
        if stats is not None:
            stats.time_cell(
                name, p_idx, e_idx, "scalar",
                grid.repetitions, time.perf_counter() - t0,
            )
    if stats is not None and perf:
        stats.absorb_fault_perf(perf)


def _run_dynamic_batch_pass(
    grid: ExperimentGrid,
    platforms: tuple[PlatformPoint, ...],
    names: list[str],
    tensors: dict[str, np.ndarray],
    supervisor: CellSupervisor | None = None,
    arena: BatchArena | None = None,
    stats=None,
    planes: FaultPlaneCache | None = None,
) -> None:
    """Fill the batch-dynamic algorithms' tensors via one lockstep pass.

    Builds one :class:`~repro.sim.dynbatch.DynamicCell` per (platform,
    error, algorithm) with the *same* per-cell seeds the scalar path
    would use — fault model included — then lets
    :func:`simulate_dynamic_cells` merge compatible cells into shared
    lockstep calls drawing their state tensors from ``arena`` and their
    fault planes from ``planes``.

    With a ``supervisor``, the merged pass is retried per the policy;
    if it keeps failing, the pass degrades to per-cell lockstep calls —
    bitwise identical to the merged pass — each under the full ladder
    (retry → scalar fallback → NaN quarantine), so one poisoned cell
    cannot take down every batch-dynamic result.
    """
    fault_model = make_fault_model(grid.fault) if grid.has_faults else None
    cells: list[DynamicCell] = []
    targets: list[tuple[str, int, int, float]] = []
    for p_idx, point in enumerate(platforms):
        platform = point.build()
        for e_idx, error in enumerate(grid.errors):
            seeds = tuple(_cell_seeds(grid, p_idx, e_idx))
            magnitude = error if grid.error_kind != "none" else 0.0
            for name in names:
                cells.append(
                    DynamicCell(
                        platform=platform,
                        scheduler=make_scheduler(name, error),
                        total_work=grid.total_work,
                        error=magnitude,
                        seeds=seeds,
                        faults=fault_model,
                    )
                )
                targets.append((name, p_idx, e_idx, error))
    perf = {} if stats is not None else None
    if supervisor is None:
        results = simulate_dynamic_cells(
            cells, mode=grid.error_mode, arena=arena, perf=perf, planes=planes
        )
    else:
        results, exc = supervisor.attempt(
            lambda: simulate_dynamic_cells(
                cells, mode=grid.error_mode, arena=arena, perf=perf,
                planes=planes,
            ),
            grid.seed,
        )
        if exc is not None:
            results = [
                supervisor.run_cell(
                    lambda cell=cell: simulate_dynamic_cells(
                        [cell], mode=grid.error_mode, arena=arena
                    )[0],
                    fallback=lambda cell=cell, error=error: _scalar_cell(
                        cell.platform, grid, cell.scheduler, error,
                        list(cell.seeds), fault_model,
                    ),
                    algorithm=name,
                    platform_index=p_idx,
                    error_index=e_idx,
                    engine="dynbatch",
                    seed=cell.seeds[0],
                    shape=(grid.repetitions,),
                )
                for cell, (name, p_idx, e_idx, error) in zip(cells, targets)
            ]
    for (name, p_idx, e_idx, _error), makespans in zip(targets, results):
        tensors[name][p_idx, e_idx, :] = makespans
    if stats is not None and perf:
        stats.absorb_fault_perf(perf)


def run_sweep(
    grid: ExperimentGrid,
    algorithms: typing.Sequence[str] = PAPER_ALGORITHMS,
    n_jobs: int = 1,
    progress: typing.Callable[[int, int], None] | None = None,
    batch_static: bool = True,
    batch_dynamic: bool | None = None,
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
        Route static algorithms through the vectorized batch engine (the
        default; see the module docstring).  ``False`` forces the scalar
        engine — mainly for benchmarking and equivalence tests.
    batch_dynamic:
        Route batch-dynamic algorithms through the lockstep batch engine.
        ``None`` (default) follows ``batch_static``, so ``--no-batch``
        disables both fast paths at once.
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
    if batch_dynamic is None:
        batch_dynamic = batch_static
    policy = retry if retry is not None else RetryPolicy()
    ledger = failures if failures is not None else FailureLedger()
    supervisor = CellSupervisor(
        policy=policy, stats=stats, ledger=ledger, tracer=tracer
    )
    platforms = tuple(grid.platforms())
    shape = (len(platforms), len(grid.errors), grid.repetitions)
    tensors = {a: np.empty(shape) for a in algorithms}

    dyn_batch_names = (
        [
            a
            for a in algorithms
            if is_batch_dynamic_algorithm(a)
            and _batch_eligible(grid, make_scheduler(a, 0.0))
        ]
        if batch_dynamic and _grid_supports_batch(grid)
        else []
    )
    dyn_set = set(dyn_batch_names)
    static_batch_names = (
        [
            a
            for a in algorithms
            if make_scheduler(a, 0.0).is_static
            and _batch_eligible(grid, make_scheduler(a, 0.0))
        ]
        if batch_static and _grid_supports_batch(grid)
        else []
    )
    static_set = set(static_batch_names)
    # Columns the per-platform loop is responsible for (the global batch
    # passes overwrite the rest); checkpoint shards record this mask so a
    # shard written under different batch flags is never trusted for
    # columns it did not actually compute.
    loop_valid = np.array(
        [a not in dyn_set and a not in static_set for a in algorithms], dtype=bool
    )
    loop_algo_count = int(loop_valid.sum())
    # When the global passes cover every algorithm — the normal case —
    # the per-platform loop has nothing left to do; skip it (and the
    # pool) entirely.
    if len(dyn_batch_names) + len(static_batch_names) == len(algorithms):
        n_jobs = 0

    if stats is not None:
        # Routing is deterministic from (grid, algorithm, flags), so the
        # counts are derived analytically rather than tallied in the loops
        # — which also makes them exact on the process-pool path.
        num_cells = len(platforms) * len(grid.errors)
        for a in algorithms:
            scheduler = make_scheduler(a, 0.0)
            if a in dyn_batch_names:
                engine = "dynbatch"
            elif (
                batch_static
                and _grid_supports_batch(grid)
                and scheduler.is_static
                and _batch_eligible(grid, scheduler)
            ):
                engine = "static-batch"
            else:
                engine = "scalar"
            stats.count_routing(engine, num_cells, grid.repetitions)

    # -- checkpoint store and resume ---------------------------------------
    key = sweep_key(grid, algorithms)
    ckpt = (
        CheckpointStore(checkpoint_dir, f"sweep-{grid.name}-{key}")
        if checkpoint_dir is not None
        else None
    )
    resumed_blocks: dict[int, np.ndarray] = {}
    lockstep_resumed: np.ndarray | None = None
    staticgrid_resumed: np.ndarray | None = None
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
        if dyn_batch_names:
            shard = ckpt.load("lockstep")
            if shard is not None:
                names = [str(n) for n in shard.get("names", np.array([]))]
                arr = shard.get("block")
                expected = (
                    len(dyn_batch_names), len(platforms),
                    len(grid.errors), grid.repetitions,
                )
                if names == list(dyn_batch_names) and (
                    arr is not None and arr.shape == expected
                ):
                    lockstep_resumed = arr
        if static_batch_names:
            shard = ckpt.load("staticgrid")
            if shard is not None:
                names = [str(n) for n in shard.get("names", np.array([]))]
                arr = shard.get("block")
                expected = (
                    len(static_batch_names), len(platforms),
                    len(grid.errors), grid.repetitions,
                )
                if names == list(static_batch_names) and (
                    arr is not None and arr.shape == expected
                ):
                    staticgrid_resumed = arr
        if stats is not None:
            stats.cells_resumed += (
                len(resumed_blocks) * len(grid.errors) * loop_algo_count
            )
        # Quarantine records of resumed shards would otherwise be lost —
        # their NaNs are being reused, so their ledger entries are too.
        for entry in ckpt.load_ledger():
            if entry.algorithm in dyn_set:
                if lockstep_resumed is not None:
                    ledger.add(entry)
            elif entry.algorithm in static_set:
                if staticgrid_resumed is not None:
                    ledger.add(entry)
            elif entry.platform_index in resumed_blocks:
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
                grid, platforms, algorithms, batch_static, batch_dynamic,
                n_jobs, pending, policy, supervisor, stats, on_block,
            )
        for p_idx in pending:
            block = _run_platform(
                grid, platforms[p_idx], p_idx, algorithms, batch_static,
                batch_dynamic, stats=stats, supervisor=supervisor,
            )
            on_block(p_idx, block)

    # Both batch passes simulate every algorithm of a (platform, error)
    # cell on the same seeds, so each fault plane is realized once and
    # shared; the cache dies with this call.
    planes = FaultPlaneCache() if grid.has_faults else None

    # -- the static whole-grid pass ----------------------------------------
    if static_batch_names:
        if staticgrid_resumed is not None:
            for i, name in enumerate(static_batch_names):
                tensors[name][...] = staticgrid_resumed[i]
            if stats is not None:
                stats.cells_resumed += (
                    len(static_batch_names) * len(platforms) * len(grid.errors)
                )
        else:
            t0 = time.perf_counter()
            _run_static_batch_pass(
                grid, platforms, static_batch_names, tensors,
                supervisor=supervisor, stats=stats, planes=planes,
            )
            if stats is not None:
                stats.staticgrid_wall_s += time.perf_counter() - t0
            if ckpt is not None:
                ckpt.save(
                    "staticgrid",
                    block=np.stack([tensors[n] for n in static_batch_names]),
                    names=np.array(static_batch_names),
                )
                ckpt.save_ledger(ledger)

    # -- the merged lockstep pass ------------------------------------------
    if dyn_batch_names:
        if lockstep_resumed is not None:
            for i, name in enumerate(dyn_batch_names):
                tensors[name][...] = lockstep_resumed[i]
            if stats is not None:
                stats.cells_resumed += (
                    len(dyn_batch_names) * len(platforms) * len(grid.errors)
                )
        else:
            t0 = time.perf_counter()
            _run_dynamic_batch_pass(
                grid, platforms, dyn_batch_names, tensors,
                supervisor=supervisor, arena=_SWEEP_ARENA, stats=stats,
                planes=planes,
            )
            if stats is not None:
                stats.lockstep_wall_s += time.perf_counter() - t0
            if ckpt is not None:
                ckpt.save(
                    "lockstep",
                    block=np.stack([tensors[n] for n in dyn_batch_names]),
                    names=np.array(dyn_batch_names),
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
