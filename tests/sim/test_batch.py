"""Tests for the vectorized batch simulator."""

import numpy as np
import pytest

from repro.core import UMR, MultiInstallment
from repro.core.umr import solve_umr
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate
from tests.cells import static_cell

W = 1000.0


@pytest.fixture(scope="module")
def setup():
    p = homogeneous_platform(12, S=1.0, bandwidth_factor=1.6, cLat=0.3, nLat=0.1)
    plan = solve_umr(p, W).to_chunk_plan()
    return p, plan


class TestExactAgreement:
    def test_zero_error_matches_scalar_engine_exactly(self, setup):
        p, plan = setup
        scalar = simulate(p, W, UMR(), NoError()).makespan
        batch = static_cell(p, plan, error=0.0, seeds=[0, 1, 2])
        assert np.all(batch == scalar)

    def test_zero_error_matches_mi(self, setup):
        p, _ = setup
        mi = MultiInstallment(3)
        plan = mi.schedule(p, W).to_chunk_plan()
        scalar = simulate(p, W, mi, NoError()).makespan
        batch = static_cell(p, plan, error=0.0, seeds=[7])
        assert batch[0] == pytest.approx(scalar, rel=1e-12)

    def test_empty_plan(self, setup):
        p, _ = setup
        from repro.core.chunks import ChunkPlan

        assert np.all(static_cell(p, ChunkPlan([]), 0.2, [1, 2]) == 0.0)


class TestStatisticalAgreement:
    def test_means_match_scalar_engine(self, setup):
        # Same seeds, same spawned streams; truncation resampling order
        # differs, so compare distributions, not bits.
        p, plan = setup
        seeds = list(range(150))
        batch = static_cell(p, plan, error=0.3, seeds=seeds)
        scalar = np.array(
            [simulate(p, W, UMR(), NormalErrorModel(0.3), seed=s).makespan for s in seeds]
        )
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.01)
        assert batch.std() == pytest.approx(scalar.std(), rel=0.25)

    def test_bitwise_match_when_no_resampling_occurs(self, setup):
        # At small magnitude the truncation mask never fires, so the block
        # draw consumes the stream identically to the scalar loop.
        p, plan = setup
        seeds = [11, 12, 13]
        batch = static_cell(p, plan, error=0.05, seeds=seeds)
        for i, s in enumerate(seeds):
            scalar = simulate(p, W, UMR(), NormalErrorModel(0.05), seed=s).makespan
            assert batch[i] == scalar

    def test_divide_mode(self, setup):
        p, plan = setup
        seeds = [3, 4]
        batch = static_cell(p, plan, error=0.05, seeds=seeds, mode="divide")
        for i, s in enumerate(seeds):
            scalar = simulate(
                p, W, UMR(), NormalErrorModel(0.05, mode="divide"), seed=s
            ).makespan
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    def test_unknown_mode_rejected(self, setup):
        p, plan = setup
        with pytest.raises(ValueError):
            static_cell(p, plan, 0.1, [1], mode="sideways")


class TestThroughput:
    def test_batch_is_much_faster_than_scalar(self, setup):
        import time

        p, plan = setup
        seeds = list(range(400))
        t0 = time.perf_counter()
        static_cell(p, plan, error=0.3, seeds=seeds)
        batch_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for s in seeds[:20]:
            simulate(p, W, UMR(), NormalErrorModel(0.3), seed=s)
        scalar_time = (time.perf_counter() - t0) / 20 * len(seeds)
        assert batch_time < scalar_time / 3  # conservative; typically 30x+
