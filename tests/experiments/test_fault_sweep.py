"""Tests for the fault axis of the experiment layer.

The fault spec is part of the grid identity (cache keys must split on it),
fault cells route through the batch engines (both implement the scalar
engine's fault semantics) and must agree with the scalar engine bitwise
at error 0, and the fault-sweep/degradation/figure chain must
hold together end to end.
"""

import numpy as np
import pytest

from repro.experiments.cache import cached_sweep, sweep_key
from repro.experiments.config import ExperimentGrid, smoke_grid
from repro.experiments.figures import fault_figure, fig_faults
from repro.experiments.metrics import fault_degradation
from repro.experiments.runner import FaultSweepResults, run_fault_sweep, run_sweep

ALGOS = ("RUMR", "UMR", "Factoring")
CRASH = "crash:worker=0,at=30"


def tiny_grid(**overrides) -> ExperimentGrid:
    base = smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.5,), cLats=(0.2,), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=2, name="tiny-fault",
    )
    return base.restrict(**overrides) if overrides else base


class TestGridFaultField:
    def test_default_is_fault_free(self):
        assert tiny_grid().fault == "none"
        assert not tiny_grid().has_faults

    def test_restrict_accepts_fault(self):
        grid = tiny_grid(fault=CRASH)
        assert grid.has_faults
        assert grid.fault == CRASH

    def test_invalid_fault_spec_fails_at_build_time(self):
        with pytest.raises(ValueError):
            tiny_grid(fault="meteor:p=1")
        with pytest.raises(ValueError):
            tiny_grid(fault="crash:p=0.2")  # missing tmax

    def test_cache_key_includes_fault(self):
        base = sweep_key(tiny_grid(), ALGOS)
        crash = sweep_key(tiny_grid(fault=CRASH), ALGOS)
        pause = sweep_key(tiny_grid(fault="pause:p=1,tmax=10,dur=5"), ALGOS)
        assert len({base, crash, pause}) == 3


class TestFaultSweep:
    def test_faulty_sweep_differs_from_clean(self):
        clean = run_sweep(tiny_grid(), algorithms=ALGOS)
        faulty = run_sweep(tiny_grid(fault=CRASH), algorithms=ALGOS)
        for algo in ALGOS:
            assert faulty.makespans[algo].shape == clean.makespans[algo].shape
            assert np.all(np.isfinite(faulty.makespans[algo]))
        # A worker lost at t=30 cannot help anyone on average.
        assert (
            faulty.makespans["Factoring"].mean() > clean.makespans["Factoring"].mean()
        )

    def test_fault_cells_stay_on_batch_engines(self):
        # Both batch engines implement fault cells, so a fault grid routes
        # zero cells to the scalar engine.
        from repro.obs import SweepStats

        stats = SweepStats()
        run_sweep(tiny_grid(fault=CRASH), algorithms=ALGOS, stats=stats)
        assert stats.cells["scalar"] == 0
        assert stats.cells["static-batch"] > 0
        assert stats.cells["dynbatch"] > 0

    def test_batched_fault_cells_match_scalar(self):
        # Batch on/off under faults: bit-identical at error 0 (the batch
        # engines reproduce the scalar fault semantics exactly), and
        # statistically indistinguishable at error > 0 (the static grid
        # pass may interleave truncation resampling differently).
        grid = tiny_grid(fault=CRASH)
        batched = run_sweep(grid, algorithms=ALGOS, batch_static=True)
        scalar = run_sweep(grid, algorithms=ALGOS, batch_static=False)
        e0 = grid.errors.index(0.0)
        for algo in ALGOS:
            b, s = batched.makespans[algo], scalar.makespans[algo]
            assert np.array_equal(b[:, e0, :], s[:, e0, :]), algo
            assert np.allclose(b.mean(), s.mean(), rtol=0.1), algo

    def test_faulty_sweep_reproducible(self):
        grid = tiny_grid(fault="crash:p=0.5,tmax=100")
        a = run_sweep(grid, algorithms=ALGOS)
        b = run_sweep(grid, algorithms=ALGOS)
        for algo in ALGOS:
            assert np.array_equal(a.makespans[algo], b.makespans[algo])

    def test_cached_sweep_separates_fault_scenarios(self, tmp_path):
        clean = cached_sweep(tiny_grid(), ALGOS, tmp_path)
        faulty = cached_sweep(tiny_grid(fault=CRASH), ALGOS, tmp_path)
        clean_again = cached_sweep(tiny_grid(), ALGOS, tmp_path)
        assert not np.array_equal(
            clean.makespans["Factoring"], faulty.makespans["Factoring"]
        )
        # The clean reload must come from its own cache entry, unpolluted.
        assert np.array_equal(
            clean.makespans["Factoring"], clean_again.makespans["Factoring"]
        )


class TestRunFaultSweep:
    @pytest.fixture(scope="class")
    def fault_results(self) -> FaultSweepResults:
        return run_fault_sweep(tiny_grid(), (CRASH,), algorithms=ALGOS)

    def test_baseline_prepended(self, fault_results):
        assert fault_results.fault_specs == ("none", CRASH)
        assert set(fault_results.sweeps) == {"none", CRASH}

    def test_scenarios_share_base_grid(self, fault_results):
        for spec, sweep in fault_results.sweeps.items():
            assert sweep.grid.fault == spec
            assert sweep.grid.seed == fault_results.base_grid.seed

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError):
            run_fault_sweep(tiny_grid(), (CRASH, CRASH), algorithms=ALGOS)

    def test_degradation_baseline_is_one(self, fault_results):
        for algo in ALGOS:
            degradation = fault_degradation(fault_results, algo)
            assert degradation["none"] == pytest.approx(1.0)
            assert degradation[CRASH] > 0.0
        # RUMR's post-crash re-plan occasionally beats its own fault-free
        # run (its heuristic is not monotone in N), so only Factoring's
        # degradation is asserted to exceed 1.
        assert fault_degradation(fault_results, "Factoring")[CRASH] > 1.0

    def test_degradation_missing_baseline_raises(self, fault_results):
        with pytest.raises(ValueError):
            fault_degradation(fault_results, "RUMR", baseline_spec="bogus")

    def test_fault_figure_shape(self, fault_results):
        fig = fault_figure(fault_results)
        assert fig.errors == (0.0, 1.0)
        assert set(fig.series) == set(ALGOS)
        for values in fig.series.values():
            assert values[0] == pytest.approx(1.0)

    def test_fig_faults_end_to_end(self, tmp_path):
        fig = fig_faults(
            tiny_grid(), (CRASH,), algorithms=("RUMR", "Factoring"),
            directory=tmp_path,
        )
        assert set(fig.series) == {"RUMR", "Factoring"}
        assert all(v > 0 for vals in fig.series.values() for v in vals)


class TestCliFaults:
    def test_fault_flag_threads_into_grid(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--preset", "smoke", "--quiet",
            "--results", str(tmp_path), "--fault", CRASH,
        ])
        assert code == 0
        # The cached entry is keyed by the *faulted* grid.
        from repro.experiments.config import PAPER_ALGORITHMS

        key = sweep_key(smoke_grid().restrict(fault=CRASH), PAPER_ALGORITHMS)
        assert (tmp_path / f"sweep-smoke-{key}.npz").exists()

    def test_figfaults_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "figfaults", "--preset", "smoke", "--quiet",
            "--results", str(tmp_path),
            "--faults", CRASH,
            "--algorithms", "RUMR,Factoring",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault scenario index" in out
        assert "RUMR" in out and "Factoring" in out

    def test_figfaults_rejects_bad_spec(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ValueError):
            main([
                "figfaults", "--preset", "smoke", "--quiet",
                "--results", str(tmp_path), "--faults", "meteor:p=1",
            ])
