"""Tests for sweep-level stats collection (runner, cache, CLI)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.registry import available_schedulers, is_static_algorithm
from repro.experiments.cache import cached_sweep
from repro.experiments.config import smoke_grid
from repro.experiments.runner import run_sweep
from repro.obs import SweepStats

ALGOS = ("RUMR", "UMR", "Factoring", "MI-2")

#: One fault scenario per transform kind, keyed by its ``fault_wall_s``
#: bucket.
FAULT_GRIDS = {
    "crash": "crash:p=0.5,tmax=100",
    "pause": "pause:p=0.5,tmax=100,dur=30",
    "slow": "slow:p=0.5,tmax=100,factor=2",
    "spike": "spike:p=0.2,delay=5",
}


@pytest.fixture
def grid():
    return smoke_grid().restrict(
        Ns=(6,), bandwidth_factors=(1.5,), cLats=(0.1, 0.3), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=2,
    )


#: Grid variants by the engine a non-static algorithm lands on: the
#: clean and crash grids batch, uniform error and a chain do not.
ROUTING_GRIDS = {
    "clean": ({}, "dynbatch"),
    "crash": ({"fault": "crash:p=0.5,tmax=100"}, "dynbatch"),
    "uniform": ({"error_kind": "uniform"}, "scalar"),
    "chain": ({"topology": "chain"}, "scalar"),
}


@pytest.mark.parametrize("variant", sorted(ROUTING_GRIDS))
def test_every_registry_name_routes_to_its_engine(variant):
    axes, dynamic_engine = ROUTING_GRIDS[variant]
    grid = smoke_grid().restrict(
        Ns=(4,), bandwidth_factors=(1.5,), cLats=(0.1,), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=2, **axes,
    )
    for name in available_schedulers():
        if is_static_algorithm(name):
            expected = "scalar" if dynamic_engine == "scalar" else "static-batch"
        else:
            expected = dynamic_engine
        stats = SweepStats()
        run_sweep(grid, algorithms=(name,), stats=stats)
        assert stats.cells == {
            engine: len(grid.errors) if engine == expected else 0
            for engine in stats.cells
        }, name


class TestRunSweepStats:
    def test_routing_accounts_every_cell(self, grid):
        stats = SweepStats()
        run_sweep(grid, algorithms=ALGOS, stats=stats)
        num_cells = grid.num_platforms * len(grid.errors)
        assert stats.total_cells == num_cells * len(ALGOS)
        assert stats.total_runs == grid.num_simulations(len(ALGOS))
        # Registry knowledge predicts the split exactly.
        n_static = sum(1 for a in ALGOS if is_static_algorithm(a))
        n_dyn = sum(1 for a in ALGOS if not is_static_algorithm(a))
        assert stats.cells["static-batch"] == num_cells * n_static
        assert stats.cells["dynbatch"] == num_cells * n_dyn
        assert stats.cells["scalar"] == 0

    def test_scalar_routing_when_batching_disabled(self, grid):
        stats = SweepStats()
        run_sweep(grid, algorithms=ALGOS, batch_static=False, stats=stats)
        assert stats.cells["static-batch"] == 0
        assert stats.cells["dynbatch"] == 0
        assert stats.cells["scalar"] == stats.total_cells > 0

    def test_timings_and_wall_recorded(self, grid):
        stats = SweepStats()
        run_sweep(grid, algorithms=ALGOS, stats=stats)
        assert stats.total_wall_s > 0.0
        assert stats.lockstep_wall_s > 0.0  # RUMR/Factoring lockstep pass
        assert stats.staticgrid_wall_s > 0.0  # UMR/MI-2 whole-grid pass
        # Both batch passes report aggregate wall times; per-cell timings
        # only appear for scalar cells, of which this grid has none.
        assert stats.cell_timings == []

    def test_scalar_cells_are_timed_when_batching_disabled(self, grid):
        stats = SweepStats()
        run_sweep(grid, algorithms=ALGOS, batch_static=False, stats=stats)
        assert stats.cell_timings, "scalar cells must be timed"
        assert all(t.wall_s >= 0.0 for t in stats.cell_timings)
        assert {t.engine for t in stats.cell_timings} == {"scalar"}
        assert {t.algorithm for t in stats.cell_timings} == set(ALGOS)

    def test_stats_do_not_perturb_results(self, grid):
        plain = run_sweep(grid, algorithms=ALGOS)
        stats = SweepStats()
        observed = run_sweep(grid, algorithms=ALGOS, stats=stats)
        for a in ALGOS:
            assert np.array_equal(plain.makespans[a], observed.makespans[a])

    @pytest.mark.parametrize("kind", sorted(FAULT_GRIDS))
    def test_fault_sweep_bills_its_kind(self, grid, kind):
        # Both batch engines bill through their fault stack: plane sampling
        # plus this kind's transform, and no other kind's.
        faulty = grid.restrict(fault=FAULT_GRIDS[kind])
        plain = run_sweep(faulty, algorithms=ALGOS)
        stats = SweepStats()
        observed = run_sweep(faulty, algorithms=ALGOS, stats=stats)
        for a in ALGOS:
            assert np.array_equal(plain.makespans[a], observed.makespans[a])
        assert stats.fault_wall_s["sample"] > 0.0
        transforms = {"crash", "pause", "slow", "spike"}
        billed = {k for k in transforms if stats.fault_wall_s[k] > 0.0}
        assert billed == {kind}

    def test_pool_path_still_counts_routing(self, grid):
        # Per-cell timings happen in pool workers and are skipped, but
        # routing is analytic (grid + flags) and must still be exact.
        stats = SweepStats()
        run_sweep(grid, algorithms=ALGOS, n_jobs=2, stats=stats)
        assert stats.total_runs == grid.num_simulations(len(ALGOS))


class TestCachedSweepStats:
    def test_miss_then_hit(self, grid, tmp_path):
        stats = SweepStats()
        cached_sweep(grid, ALGOS, tmp_path, stats=stats)
        assert (stats.cache_misses, stats.cache_hits) == (1, 0)
        assert stats.total_runs > 0  # miss forwarded to run_sweep
        cached_sweep(grid, ALGOS, tmp_path, stats=stats)
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)


class TestStatsCli:
    def test_stats_command_prints_report(self, tmp_path, capsys):
        code = main(["stats", "--results", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep stats:" in out
        assert "engine routing:" in out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        # Second invocation hits the cache written by the first.
        code = main(["stats", "--results", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: 1 hit(s), 0 miss(es)" in out
