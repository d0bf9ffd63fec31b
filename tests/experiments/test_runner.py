"""Tests for the sweep runner and its seeding discipline."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.errors import CrashFaults
from repro.experiments import runner
from repro.experiments.config import PAPER_ALGORITHMS, smoke_grid
from repro.experiments.runner import SweepResults, run_sweep
from repro.sim import batch

ALGOS = ("RUMR", "UMR", "Factoring")


@pytest.fixture(scope="module")
def tiny_results():
    grid = smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.5,), cLats=(0.0, 0.2), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=3,
    )
    return run_sweep(grid, algorithms=ALGOS)


class TestRunSweep:
    def test_tensor_shapes(self, tiny_results):
        for algo in ALGOS:
            assert tiny_results.makespans[algo].shape == (2, 2, 3)

    def test_all_makespans_positive_finite(self, tiny_results):
        for tensor in tiny_results.makespans.values():
            assert np.all(np.isfinite(tensor))
            assert np.all(tensor > 0)

    def test_zero_error_column_deterministic(self, tiny_results):
        # With error = 0 every repetition is identical.
        for tensor in tiny_results.makespans.values():
            zero_col = tensor[:, 0, :]
            assert np.all(zero_col == zero_col[:, :1])

    def test_rumr_equals_umr_at_zero_error(self, tiny_results):
        assert np.allclose(
            tiny_results.makespans["RUMR"][:, 0, :],
            tiny_results.makespans["UMR"][:, 0, :],
        )

    def test_sweep_reproducible(self, tiny_results):
        again = run_sweep(tiny_results.grid, algorithms=ALGOS)
        for algo in ALGOS:
            assert np.array_equal(
                tiny_results.makespans[algo], again.makespans[algo]
            )

    def test_seed_changes_results(self, tiny_results):
        other = run_sweep(
            tiny_results.grid.restrict(seed=777), algorithms=ALGOS
        )
        # Error columns beyond zero must differ.
        assert not np.array_equal(
            tiny_results.makespans["Factoring"][:, 1, :],
            other.makespans["Factoring"][:, 1, :],
        )

    def test_duplicate_algorithms_rejected(self, tiny_results):
        with pytest.raises(ValueError):
            run_sweep(tiny_results.grid, algorithms=("UMR", "UMR"))

    def test_progress_callback_called(self, tiny_results):
        calls = []
        run_sweep(
            tiny_results.grid,
            algorithms=("UMR",),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls[-1] == (tiny_results.grid.num_platforms,) * 1 + (calls[-1][1],)
        assert calls[-1][0] == calls[-1][1]


class TestFastPath:
    """The batched static path against the all-scalar reference."""

    STATIC = ("UMR", "MI-2", "OneRound")
    DYNAMIC = ("RUMR", "Factoring")

    @pytest.fixture(scope="class")
    def paths(self):
        grid = smoke_grid().restrict(
            Ns=(8,), bandwidth_factors=(1.6,), cLats=(0.1,), nLats=(0.1,),
            errors=(0.0, 0.1, 0.3), repetitions=4,
        )
        algos = self.STATIC + self.DYNAMIC
        batched = run_sweep(grid, algorithms=algos, batch_static=True)
        scalar = run_sweep(grid, algorithms=algos, batch_static=False)
        return batched, scalar

    def test_static_exact_at_zero_error(self, paths):
        batched, scalar = paths
        for algo in self.STATIC:
            assert np.array_equal(
                batched.makespans[algo][:, 0, :], scalar.makespans[algo][:, 0, :]
            ), algo

    def test_static_close_at_positive_error(self, paths):
        # Both paths consume the same factor sequence, so the tensors are
        # bitwise equal at every error.
        batched, scalar = paths
        for algo in self.STATIC:
            assert np.array_equal(
                batched.makespans[algo], scalar.makespans[algo]
            ), algo

    def test_dynamic_identical_everywhere(self, paths):
        # Dynamic algorithms run the scalar engine on both paths with the
        # same per-cell seeds — the pairing must be untouched.
        batched, scalar = paths
        for algo in self.DYNAMIC:
            assert np.array_equal(
                batched.makespans[algo], scalar.makespans[algo]
            ), algo

    def test_uniform_error_kind_falls_back(self):
        # Non-normal error kinds are not batchable; both flags must give
        # bit-identical tensors because both use the scalar engine.
        grid = smoke_grid().restrict(
            Ns=(8,), bandwidth_factors=(1.6,), cLats=(0.1,), nLats=(0.1,),
            errors=(0.0, 0.2), repetitions=2, error_kind="uniform",
        )
        batched = run_sweep(grid, algorithms=("UMR", "RUMR"), batch_static=True)
        scalar = run_sweep(grid, algorithms=("UMR", "RUMR"), batch_static=False)
        for algo in ("UMR", "RUMR"):
            assert np.array_equal(
                batched.makespans[algo], scalar.makespans[algo]
            )


class TestCompanionIndependence:
    """An algorithm's tensor does not depend on which others share its sweep.

    Every algorithm draws its error > 0 factors from the same cached
    per-seed streams; any growth schedule yields the same values, so they
    do not depend on the longest plan (or dynamic run) that grew them
    first.
    Under faults every algorithm of a cell shares one realized fault
    plane, and each consumer draws link spikes from its own copy of the
    plane's generators.
    """

    @pytest.mark.parametrize(
        "alone, together, fault",
        [
            (("RUMR",), PAPER_ALGORITHMS, "none"),
            (("MI-1",), ("UMR", "MI-1"), "none"),
            (("RUMR",), PAPER_ALGORITHMS, "crash:p=0.5,tmax=100"),
            (("UMR",), ("UMR", "MI-1"), "spike:p=0.25,delay=4"),
        ],
        ids=[
            "RUMR-with-paper-algorithms",
            "MI-1-with-UMR",
            "RUMR-with-paper-algorithms-crash",
            "UMR-with-MI-1-spike",
        ],
    )
    def test_tensor_independent_of_companions(self, alone, together, fault):
        grid = dataclasses.replace(smoke_grid(), seed=7, fault=fault)
        batch._FACTOR_STREAMS.clear()
        single = run_sweep(grid, algorithms=alone)
        batch._FACTOR_STREAMS.clear()
        shared = run_sweep(grid, algorithms=together)
        name = alone[0]
        assert np.array_equal(single.makespans[name], shared.makespans[name])

    def test_batched_fault_planes_shared_then_released(self, monkeypatch):
        # Each (platform, error) cell's plane is realized once for all
        # algorithms of both batch passes, and no plane outlives the sweep.
        grid = dataclasses.replace(
            smoke_grid(), seed=7, fault="crash:p=0.5,tmax=100"
        )
        caches = []

        class TrackedCache(runner.FaultPlaneCache):
            def __init__(self):
                super().__init__()
                caches.append(weakref.ref(self))

        planes = []
        original = CrashFaults.sample_batch

        def tracked(self, platform, seeds):
            plane = original(self, platform, seeds)
            planes.append(weakref.ref(plane))
            return plane

        monkeypatch.setattr(runner, "FaultPlaneCache", TrackedCache)
        monkeypatch.setattr(CrashFaults, "sample_batch", tracked)
        run_sweep(grid, algorithms=PAPER_ALGORITHMS)
        assert len(planes) == len(grid.platforms()) * len(grid.errors)
        gc.collect()
        assert len(caches) == 1
        assert caches[0]() is None
        assert all(plane() is None for plane in planes)


class TestSweepResults:
    def test_select_filters_platforms(self, tiny_results):
        subset = tiny_results.select(lambda p: p.cLat == 0.0)
        assert len(subset.platforms) == 1
        assert subset.makespans["UMR"].shape[0] == 1

    def test_select_empty_rejected(self, tiny_results):
        with pytest.raises(ValueError):
            tiny_results.select(lambda p: p.N == 999)

    def test_reference_is_rumr(self, tiny_results):
        assert tiny_results.reference == "RUMR"

    def test_shape_validation(self, tiny_results):
        with pytest.raises(ValueError):
            SweepResults(
                grid=tiny_results.grid,
                algorithms=("UMR",),
                platforms=tiny_results.platforms,
                makespans={"UMR": np.zeros((1, 1, 1))},
            )
