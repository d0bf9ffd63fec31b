"""Tests for Fixed-Size Chunking."""

import pytest

from repro.core.fsc import FixedSizeChunking, kruskal_weiss_chunk_size
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def platform(n=8):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


class TestChunkSizeFormula:
    def test_degenerates_to_equal_split_without_noise(self):
        assert kruskal_weiss_chunk_size(W, 8, overhead=0.3, sigma_per_unit=0.0) == W / 8

    def test_degenerates_for_single_worker(self):
        assert kruskal_weiss_chunk_size(W, 1, overhead=0.3, sigma_per_unit=0.2) == W

    def test_zero_overhead_gives_zero(self):
        assert kruskal_weiss_chunk_size(W, 8, overhead=0.0, sigma_per_unit=0.2) == 0.0

    def test_capped_at_equal_split(self):
        c = kruskal_weiss_chunk_size(W, 4, overhead=100.0, sigma_per_unit=1e-6)
        assert c <= W / 4

    def test_monotone_in_overhead(self):
        lo = kruskal_weiss_chunk_size(W, 8, overhead=0.1, sigma_per_unit=0.3)
        hi = kruskal_weiss_chunk_size(W, 8, overhead=0.5, sigma_per_unit=0.3)
        assert hi > lo

    def test_monotone_decreasing_in_noise(self):
        lo = kruskal_weiss_chunk_size(W, 8, overhead=0.3, sigma_per_unit=0.5)
        hi = kruskal_weiss_chunk_size(W, 8, overhead=0.3, sigma_per_unit=0.1)
        assert hi > lo


class TestScheduler:
    def test_all_chunks_equal_except_last(self):
        result = simulate(platform(), W, FixedSizeChunking(chunk_size=30.0))
        sizes = [r.size for r in result.records]
        assert all(s == pytest.approx(30.0) for s in sizes[:-1])
        assert sizes[-1] <= 30.0 + 1e-9

    def test_work_conserved_and_valid(self):
        result = simulate(platform(), W, FixedSizeChunking(known_error=0.3))
        assert result.dispatched_work == pytest.approx(W, rel=1e-9)
        validate_schedule(result)

    def test_explicit_chunk_size_overrides_formula(self):
        result = simulate(platform(), W, FixedSizeChunking(chunk_size=100.0))
        assert result.records[0].size == pytest.approx(100.0)

    def test_min_chunk_floor(self):
        sched = FixedSizeChunking(known_error=100.0, min_chunk=7.0)
        result = simulate(platform(), W, sched)
        assert all(r.size >= 7.0 - 1e-9 for r in result.records[:-1])

    def test_self_scheduled_under_error(self):
        result = simulate(
            platform(), W, FixedSizeChunking(known_error=0.3), NormalErrorModel(0.3), seed=3
        )
        validate_schedule(result)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            FixedSizeChunking(chunk_size=0.0)

    def test_zero_chunk_binding_rejected(self):
        # Zero latencies make the Kruskal-Weiss size 0; with no floor the
        # binding would dispatch empty chunks forever.
        free = homogeneous_platform(10, S=1.0, bandwidth_factor=1.5, cLat=0, nLat=0)
        with pytest.raises(ValueError, match="chunk size"):
            FixedSizeChunking(known_error=0.3, min_chunk=0.0).batch_kernel(free, W)

    def test_chunk_never_exceeds_workload(self):
        result = simulate(platform(), 10.0, FixedSizeChunking(chunk_size=1e9))
        assert result.num_chunks == 1
        assert result.records[0].size == pytest.approx(10.0)
