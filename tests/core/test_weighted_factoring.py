"""Tests for Weighted Factoring."""

import statistics

import pytest

from repro.core.factoring import Factoring
from repro.core.weighted_factoring import WeightedFactoring
from repro.errors import NormalErrorModel
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def hetero():
    return PlatformSpec(
        [
            WorkerSpec(S=3.0, B=30.0, cLat=0.1, nLat=0.05),
            WorkerSpec(S=1.0, B=20.0, cLat=0.1, nLat=0.05),
            WorkerSpec(S=1.0, B=20.0, cLat=0.1, nLat=0.05),
            WorkerSpec(S=0.5, B=15.0, cLat=0.1, nLat=0.05),
        ]
    )


class TestWeightedBatches:
    def test_first_chunk_sizes_proportional_to_speed(self):
        p = hetero()
        result = simulate(p, W, WeightedFactoring(min_chunk=1e-9))
        # Sizes decay continuously with `remaining`, so check the ratio of
        # each chunk to the remaining workload at its dispatch.
        s_tot = 5.5
        remaining = W
        for r in result.records[:4]:
            expected = remaining / 2 * p[r.worker].S / s_tot
            assert r.size == pytest.approx(expected, rel=1e-9)
            remaining -= r.size

    def test_chunk_compute_times_speed_balanced(self):
        p = hetero()
        result = simulate(p, W, WeightedFactoring(min_chunk=1e-9))
        # The first chunk of each worker costs (remaining/2/S_tot) seconds;
        # with continuous decay those times shrink with dispatch order but
        # stay within one decay step (factor 2) across a worker rotation.
        times = [r.size / p[r.worker].S for r in result.records[:4]]
        assert max(times) / min(times) < 2.0
        # Crucially they are far more balanced than unweighted equal-size
        # chunks would be (speed spread is 6x on this platform).
        assert max(times) / min(times) < 6.0 / 2.0

    def test_close_to_plain_factoring_on_homogeneous(self):
        # On homogeneous platforms weighted factoring only differs by its
        # continuous (vs per-batch) decay profile: mean makespans within 2%.
        p = homogeneous_platform(6, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.05)
        def mean(sched):
            return statistics.mean(
                simulate(p, W, sched, NormalErrorModel(0.3), seed=s).makespan
                for s in range(20)
            )
        assert mean(WeightedFactoring()) == pytest.approx(mean(Factoring()), rel=0.02)

    def test_work_conserved_and_valid(self):
        result = simulate(hetero(), W, WeightedFactoring(), NormalErrorModel(0.3), seed=1)
        assert result.dispatched_work == pytest.approx(W, rel=1e-9)
        validate_schedule(result)

    def test_beats_plain_factoring_on_heterogeneous(self):
        p = hetero()
        def mean(sched):
            return statistics.mean(
                simulate(p, W, sched, NormalErrorModel(0.2), seed=s).makespan
                for s in range(15)
            )
        assert mean(WeightedFactoring()) < mean(Factoring())

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            WeightedFactoring(factor=1.0)
        from repro.core.weighted_factoring import WeightedFactoringSource

        with pytest.raises(ValueError):
            WeightedFactoringSource(hetero(), W, factor=2.0, min_chunk=-1.0)
        with pytest.raises(ValueError, match="min_chunk"):
            WeightedFactoring(min_chunk=-1.0)

    def test_engines_identical(self):
        p = hetero()
        f = simulate(p, W, WeightedFactoring(), NormalErrorModel(0.3), seed=7, engine="fast")
        d = simulate(p, W, WeightedFactoring(), NormalErrorModel(0.3), seed=7, engine="des")
        assert f.records == d.records
