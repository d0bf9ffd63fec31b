"""Tests for the topology axis of the experiment layer.

The topology spec is part of the grid identity (cache keys must split on
it), non-star grids route around the batch engines, star cells of a
topology sweep must be bitwise identical to a plain sweep, and the
sweep/degradation/figure chain must hold together end to end.
"""

import numpy as np
import pytest

from repro.experiments.cache import sweep_key
from repro.experiments.config import ExperimentGrid, smoke_grid
from repro.experiments.runner import run_sweep
from repro.experiments.topology import (
    robustness_transfer,
    run_topology_sweep,
    topology_degradation,
    topology_figure,
)

pytestmark = pytest.mark.topology

ALGOS = ("RUMR", "Factoring")
SPECS = ("chain:relay=sf", "tree:fanout=2")


def tiny_grid(**overrides) -> ExperimentGrid:
    base = smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.5,), cLats=(0.2,), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=2, name="tiny-topo",
    )
    return base.restrict(**overrides) if overrides else base


class TestGridTopologyField:
    def test_default_is_star(self):
        assert tiny_grid().topology == "star"
        assert not tiny_grid().has_topology

    def test_restrict_accepts_topology(self):
        grid = tiny_grid(topology="chain:relay=sf")
        assert grid.has_topology
        assert grid.topology == "chain:relay=sf"

    def test_invalid_spec_fails_at_build_time(self):
        with pytest.raises(ValueError):
            tiny_grid(topology="ring:n=4")

    def test_sharedbw_with_faults_rejected(self):
        with pytest.raises(ValueError):
            tiny_grid(topology="sharedbw:cap=2", fault="crash:worker=0,at=30")

    def test_cache_key_includes_topology(self):
        keys = {
            sweep_key(tiny_grid(), ALGOS),
            sweep_key(tiny_grid(topology="chain:relay=sf"), ALGOS),
            sweep_key(tiny_grid(topology="tree:fanout=2"), ALGOS),
        }
        assert len(keys) == 3


class TestTopologyRouting:
    def test_star_grid_keeps_batch_engines(self):
        from repro.obs import SweepStats

        stats = SweepStats()
        run_sweep(tiny_grid(), algorithms=ALGOS, stats=stats)
        assert stats.cells["scalar"] == 0

    def test_non_star_grid_routes_scalar(self):
        from repro.obs import SweepStats

        stats = SweepStats()
        run_sweep(tiny_grid(topology="chain:relay=sf"), algorithms=ALGOS,
                  stats=stats)
        assert stats.cells["scalar"] > 0
        assert stats.cells["static-batch"] == 0
        assert stats.cells["dynbatch"] == 0

    def test_multiport_star_grid_routes_scalar_des(self):
        # A star with ports is no longer the batch engines' star: every
        # cell takes the scalar rung, which runs it on the DES engine.
        from repro.core.registry import make_scheduler
        from repro.errors.models import make_error_model
        from repro.experiments.runner import _cell_seeds
        from repro.obs import SweepStats
        from repro.sim.engine import simulate_des

        grid = tiny_grid(topology="star:ports=2")
        stats = SweepStats()
        sweep = run_sweep(grid, algorithms=ALGOS, stats=stats)
        assert stats.cells["static-batch"] == 0
        assert stats.cells["dynbatch"] == 0
        assert stats.cells["scalar"] == len(ALGOS) * len(grid.errors)
        platform = grid.platforms()[0].build()
        for algo in ALGOS:
            for e_idx, error in enumerate(grid.errors):
                direct = [
                    simulate_des(
                        platform, grid.total_work, make_scheduler(algo, error),
                        make_error_model(grid.error_kind, error), seed=seed,
                        topology=grid.topology,
                    ).makespan
                    for seed in _cell_seeds(grid, 0, e_idx)
                ]
                assert sweep.makespans[algo][0, e_idx].tolist() == direct

    def test_chain_sweep_is_finite_and_slower(self):
        star = run_sweep(tiny_grid(), algorithms=ALGOS)
        chain = run_sweep(tiny_grid(topology="chain:relay=sf"), algorithms=ALGOS)
        for algo in ALGOS:
            assert np.all(np.isfinite(chain.makespans[algo]))
            assert chain.makespans[algo].mean() > star.makespans[algo].mean()


class TestTopologySweep:
    @pytest.fixture(scope="class")
    def results(self):
        return run_topology_sweep(tiny_grid(), SPECS, algorithms=ALGOS)

    def test_star_baseline_always_included(self, results):
        assert results.topology_specs[0] == "star"
        assert set(results.topology_specs) == {"star", *SPECS}

    def test_star_cells_match_plain_sweep(self, results):
        plain = run_sweep(tiny_grid(), algorithms=ALGOS)
        for algo in ALGOS:
            assert np.array_equal(
                results.sweeps["star"].makespans[algo], plain.makespans[algo]
            )

    def test_degradation_baseline_is_one(self, results):
        for algo in ALGOS:
            deg = topology_degradation(results, algo)
            assert deg["star"] == pytest.approx(1.0)
            assert all(v >= 1.0 for v in deg.values())

    def test_robustness_transfer_shape(self, results):
        transfer = robustness_transfer(results, "RUMR")
        assert set(transfer) == {"star", *SPECS}
        assert all(np.isfinite(v) and v > 0 for v in transfer.values())

    def test_figure_renders(self, results):
        fig = topology_figure(results)
        assert set(fig.series) == set(ALGOS)
        for algo in ALGOS:
            assert len(fig.series[algo]) == len(results.topology_specs)
        assert "topolog" in (fig.title + fig.xlabel).lower()

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_topology_sweep(
                tiny_grid(), ("star", "chain:relay=sf", "chain:relay=sf"),
                algorithms=ALGOS,
            )

    def test_ported_star_is_not_the_baseline(self):
        # A multi-port star is a scenario, not the paper's star: the
        # plain star is still prepended and is the degradation baseline.
        results = run_topology_sweep(tiny_grid(), ("star:ports=2",), algorithms=ALGOS)
        assert results.topology_specs == ("star", "star:ports=2")
        assert topology_degradation(results, "RUMR")["star"] == pytest.approx(1.0)
