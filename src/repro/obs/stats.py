"""Sweep-level observability: engine routing, per-cell wall time, cache.

A :class:`SweepStats` rides through :func:`repro.experiments.runner.
run_sweep` and :func:`repro.experiments.cache.cached_sweep` and collects

* **routing** — how many (platform, error, algorithm) cells each engine
  family handled (``static-batch`` / ``dynbatch`` / ``scalar``), and how
  many individual simulations that represents;
* **cell timings** — wall time of each batched cell and each scalar
  (cell, algorithm) loop; the merged lockstep pass reports one aggregate
  wall time (its cells share one call by design);
* **cache tallies** — hits and misses of the on-disk sweep cache, plus
  corrupt entries quarantined to ``<dir>/corrupt/``;
* **resilience tallies** — retries, engine fallbacks, quarantined cells,
  cells resumed from checkpoints, and process-pool supervision outcomes
  (restarts, timeouts, degradations to serial), fed by
  :class:`repro.experiments.resilient.CellSupervisor` and the runner's
  pool supervisor.

Collection piggybacks on the in-process path; a process-pool run
(``n_jobs > 1``) still records routing and total wall time but not
per-cell timings (they happen in pool workers).  Everything is surfaced
by ``repro stats`` on the CLI.
"""

from __future__ import annotations

import dataclasses

__all__ = ["CellTiming", "SweepStats"]

#: Engine-routing families a cell can take.
ENGINES = ("static-batch", "dynbatch", "scalar")

#: Fault-engine wall-time buckets, billed into the batch engines' ``perf``
#: mappings by :class:`~repro.errors.faults.FaultStack`: schedule
#: realization, scalar-deferral replays, and the per-kind transforms.
FAULT_KINDS = ("sample", "defer", "crash", "pause", "slow", "spike")


@dataclasses.dataclass(frozen=True, slots=True)
class CellTiming:
    """Wall time of one timed unit of sweep work."""

    algorithm: str
    platform_index: int
    error_index: int
    engine: str
    runs: int
    wall_s: float


@dataclasses.dataclass
class SweepStats:
    """Mutable collector for one or more sweeps (see module docstring)."""

    cells: dict[str, int] = dataclasses.field(
        default_factory=lambda: {e: 0 for e in ENGINES}
    )
    runs: dict[str, int] = dataclasses.field(
        default_factory=lambda: {e: 0 for e in ENGINES}
    )
    cell_timings: list[CellTiming] = dataclasses.field(default_factory=list)
    lockstep_wall_s: float = 0.0
    staticgrid_wall_s: float = 0.0
    total_wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt_quarantined: int = 0
    retries: int = 0
    engine_fallbacks: int = 0
    cells_quarantined: int = 0
    cells_resumed: int = 0
    pool_restarts: int = 0
    pool_timeouts: int = 0
    pool_degradations: int = 0
    rows_deferred_scalar: int = 0
    jobs_failed: int = 0
    jobs_resubmitted: int = 0
    workers_excluded: int = 0
    fault_wall_s: dict[str, float] = dataclasses.field(
        default_factory=lambda: {k: 0.0 for k in FAULT_KINDS}
    )

    # -- collection hooks ---------------------------------------------------
    def count_routing(self, engine: str, cells: int, runs_per_cell: int) -> None:
        """Account ``cells`` cells of ``engine`` routing."""
        if engine not in self.cells:
            raise ValueError(f"unknown engine family {engine!r}")
        self.cells[engine] += cells
        self.runs[engine] += cells * runs_per_cell

    def time_cell(
        self,
        algorithm: str,
        platform_index: int,
        error_index: int,
        engine: str,
        runs: int,
        wall_s: float,
    ) -> None:
        self.cell_timings.append(
            CellTiming(algorithm, platform_index, error_index, engine, runs, wall_s)
        )

    def count_stream(self, result) -> None:
        """Fold one multi-job stream's health counters into the totals.

        ``result`` is a :class:`~repro.sim.multijob.MultiJobResult`
        (typed loosely to avoid an import cycle): ``jobs_failed``/
        ``jobs_resubmitted`` count jobs, ``workers_excluded`` counts
        workers the stream's health tracker declared dead.
        """
        self.jobs_failed += int(result.jobs_failed)
        self.jobs_resubmitted += int(result.jobs_resubmitted)
        self.workers_excluded += len(result.workers_excluded)

    def absorb_fault_perf(self, perf: dict) -> None:
        """Fold one batch pass's fault counters into the totals.

        ``perf`` is the mutable mapping the batch engines accumulate into
        (``rows_deferred_scalar`` plus ``fault_<kind>_s`` wall times).
        """
        self.rows_deferred_scalar += int(perf.get("rows_deferred_scalar", 0))
        for kind in self.fault_wall_s:
            self.fault_wall_s[kind] += float(perf.get(f"fault_{kind}_s", 0.0))

    # -- reporting ----------------------------------------------------------
    @property
    def total_cells(self) -> int:
        return sum(self.cells.values())

    @property
    def total_runs(self) -> int:
        return sum(self.runs.values())

    def slowest_cells(self, count: int = 5) -> list[CellTiming]:
        return sorted(self.cell_timings, key=lambda c: -c.wall_s)[:count]

    def summary(self, top: int = 5) -> str:
        """Human-readable multi-line report for the CLI."""
        lines = [
            f"sweep stats: {self.total_runs} simulations in "
            f"{self.total_cells} cells, {self.total_wall_s:.3f}s wall",
            "engine routing:",
        ]
        for engine in ENGINES:
            cells = self.cells[engine]
            runs = self.runs[engine]
            share = runs / self.total_runs if self.total_runs else 0.0
            lines.append(
                f"  {engine:>12}: {cells:5d} cells, {runs:7d} runs ({share:5.1%})"
            )
        if self.staticgrid_wall_s:
            lines.append(f"static grid pass wall: {self.staticgrid_wall_s:.3f}s")
        if self.lockstep_wall_s:
            lines.append(f"lockstep pass wall: {self.lockstep_wall_s:.3f}s")
        fault_total = sum(self.fault_wall_s.values())
        if fault_total or self.rows_deferred_scalar:
            parts = ", ".join(
                f"{kind} {wall * 1e3:.1f}ms"
                for kind, wall in self.fault_wall_s.items()
                if wall
            )
            lines.append(
                f"fault engine: {fault_total:.3f}s"
                + (f" ({parts})" if parts else "")
            )
            lines.append(
                f"rows deferred to scalar engine: {self.rows_deferred_scalar}"
            )
        cache_line = (
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
        )
        if self.cache_corrupt_quarantined:
            cache_line += (
                f", {self.cache_corrupt_quarantined} corrupt entr(ies) quarantined"
            )
        lines.append(cache_line)
        lines.append(
            f"resilience: {self.retries} retr(ies), "
            f"{self.engine_fallbacks} engine fallback(s), "
            f"{self.cells_quarantined} cell(s) quarantined, "
            f"{self.cells_resumed} cell(s) resumed from checkpoints"
        )
        if self.jobs_failed or self.jobs_resubmitted or self.workers_excluded:
            lines.append(
                f"stream health: {self.jobs_failed} job(s) failed, "
                f"{self.jobs_resubmitted} job(s) resubmitted, "
                f"{self.workers_excluded} worker(s) excluded"
            )
        if self.pool_restarts or self.pool_timeouts or self.pool_degradations:
            lines.append(
                f"pool supervision: {self.pool_restarts} restart(s), "
                f"{self.pool_timeouts} timeout(s), "
                f"{self.pool_degradations} degradation(s) to serial"
            )
        slowest = self.slowest_cells(top)
        if slowest:
            lines.append(f"slowest timed cells (top {len(slowest)}):")
            for c in slowest:
                lines.append(
                    f"  {c.wall_s * 1e3:9.2f} ms  {c.algorithm:<18} "
                    f"platform={c.platform_index} error={c.error_index} "
                    f"[{c.engine}, {c.runs} runs]"
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (used by tests and tooling)."""
        return {
            "cells": dict(self.cells),
            "runs": dict(self.runs),
            "lockstep_wall_s": self.lockstep_wall_s,
            "staticgrid_wall_s": self.staticgrid_wall_s,
            "total_wall_s": self.total_wall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corrupt_quarantined": self.cache_corrupt_quarantined,
            "retries": self.retries,
            "engine_fallbacks": self.engine_fallbacks,
            "cells_quarantined": self.cells_quarantined,
            "cells_resumed": self.cells_resumed,
            "pool_restarts": self.pool_restarts,
            "pool_timeouts": self.pool_timeouts,
            "pool_degradations": self.pool_degradations,
            "rows_deferred_scalar": self.rows_deferred_scalar,
            "jobs_failed": self.jobs_failed,
            "jobs_resubmitted": self.jobs_resubmitted,
            "workers_excluded": self.workers_excluded,
            "fault_wall_s": dict(self.fault_wall_s),
            "cell_timings": [dataclasses.asdict(c) for c in self.cell_timings],
        }
