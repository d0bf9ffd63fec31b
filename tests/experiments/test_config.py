"""Tests for experiment grids."""

import dataclasses

import pytest

from repro.experiments.config import (
    PAPER_ALGORITHMS,
    ExperimentGrid,
    paper_grid,
    preset_grid,
    small_grid,
    smoke_grid,
)
from repro.platform.topology import TopologyError


class TestPaperGrid:
    def test_matches_table1(self):
        grid = paper_grid()
        assert grid.Ns == (10, 15, 20, 25, 30, 35, 40, 45, 50)
        assert grid.bandwidth_factors[0] == pytest.approx(1.2)
        assert grid.bandwidth_factors[-1] == pytest.approx(2.0)
        assert len(grid.bandwidth_factors) == 9
        assert grid.cLats == tuple(pytest.approx(0.1 * k) for k in range(11))
        assert grid.nLats == tuple(pytest.approx(0.1 * k) for k in range(11))
        assert grid.total_work == 1000.0
        assert grid.S == 1.0
        assert grid.repetitions == 40

    def test_error_axis_covers_0_to_half(self):
        grid = paper_grid()
        assert grid.errors[0] == 0.0
        assert grid.errors[-1] == pytest.approx(0.5)
        assert len(grid.errors) == 26  # step 0.02

    def test_platform_count(self):
        assert paper_grid().num_platforms == 9 * 9 * 11 * 11

    def test_num_simulations(self):
        grid = smoke_grid()
        expected = (
            grid.num_platforms * len(grid.errors) * grid.repetitions * 7
        )
        assert grid.num_simulations(7) == expected


class TestPresets:
    def test_preset_lookup(self):
        assert preset_grid("paper").name == "paper"
        assert preset_grid("small").name == "small"
        assert preset_grid("smoke").name == "smoke"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_grid("gigantic")

    def test_small_spans_table1_ranges(self):
        grid = small_grid()
        assert min(grid.Ns) == 10 and max(grid.Ns) >= 40
        assert min(grid.cLats) == 0.0 and max(grid.cLats) == 1.0
        assert min(grid.nLats) == 0.0 and max(grid.nLats) == 1.0

    def test_small_contains_fig4b_subset(self):
        grid = small_grid()
        assert any(c < 0.3 for c in grid.cLats)
        assert any(n < 0.3 for n in grid.nLats)

    def test_smoke_is_fast(self):
        assert smoke_grid().num_simulations(7) < 2000


class TestGridMechanics:
    def test_platforms_build(self):
        for point in smoke_grid().platforms():
            platform = point.build()
            assert platform.N == point.N
            assert platform[0].B == pytest.approx(point.bandwidth_factor * point.N)

    def test_restrict_replaces_axes(self):
        grid = smoke_grid().restrict(errors=(0.0, 0.5), repetitions=2)
        assert grid.errors == (0.0, 0.5)
        assert grid.repetitions == 2

    def test_restrict_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            smoke_grid().restrict(workers=(1,))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentGrid(
                name="bad", Ns=(), bandwidth_factors=(1.5,), cLats=(0.0,),
                nLats=(0.0,), errors=(0.1,),
            )
        with pytest.raises(ValueError):
            smoke_grid().restrict(repetitions=0)

    @pytest.mark.parametrize("total_work", (0.0, float("inf"), float("nan")))
    def test_total_work_must_be_finite_and_positive(self, total_work):
        with pytest.raises(ValueError, match="total_work must be > 0"):
            dataclasses.replace(smoke_grid(), total_work=total_work)

    @pytest.mark.parametrize("kind", ("star", "chain"))
    @pytest.mark.parametrize("n", (7, 10))
    def test_topology_worker_count_must_match_grid(self, kind, n):
        # A topology's n= names the platform size; a grid of N=10
        # platforms must reject any other n at build time, on every path.
        spec = f"{kind}:n={n}"
        base = preset_grid("bench").restrict(Ns=(10,))
        if n == 10:
            assert base.restrict(topology=spec).topology == spec
        else:
            with pytest.raises(TopologyError, match="n=7"):
                base.restrict(topology=spec)

    def test_paper_algorithms_are_seven(self):
        assert len(PAPER_ALGORITHMS) == 7
        assert PAPER_ALGORITHMS[0] == "RUMR"
