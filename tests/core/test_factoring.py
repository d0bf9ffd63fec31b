"""Tests for the Factoring self-scheduler."""

import pytest

from repro.core.factoring import Factoring, FactoringSource
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def platform(n=10):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.05)


class TestBatchRule:
    def test_first_batch_is_half_remaining(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(min_chunk=0.5))
        # First 4 chunks: W / (2*4) each.
        for r in result.records[:4]:
            assert r.size == pytest.approx(W / 8)

    def test_batches_halve(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(min_chunk=1e-9))
        sizes = [r.size for r in result.records]
        # Batch k chunk size = W * (1/2)^{k+1} / N.
        for k in range(3):
            batch = sizes[4 * k : 4 * (k + 1)]
            expected = W * 0.5 ** (k + 1) / 4
            for s in batch:
                assert s == pytest.approx(expected, rel=1e-9)

    def test_chunk_sizes_nonincreasing(self):
        result = simulate(platform(), W, Factoring())
        sizes = [r.size for r in result.records]
        assert all(b <= a + 1e-9 for a, b in zip(sizes, sizes[1:]))

    def test_min_chunk_floor_respected(self):
        result = simulate(platform(), W, Factoring(min_chunk=5.0))
        sizes = [r.size for r in result.records]
        # Every chunk except possibly the last (the residue) >= floor.
        assert all(s >= 5.0 - 1e-9 for s in sizes[:-1])

    def test_total_work_conserved(self):
        result = simulate(platform(), W, Factoring())
        assert result.dispatched_work == pytest.approx(W, rel=1e-9)
        validate_schedule(result)

    def test_custom_factor(self):
        p = platform(n=4)
        result = simulate(p, W, Factoring(factor=4.0, min_chunk=1e-9))
        assert result.records[0].size == pytest.approx(W / 16)

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            Factoring(factor=1.0)
        with pytest.raises(ValueError):
            FactoringSource(4, W, factor=0.5, min_chunk=1.0, phase="x")

    def test_negative_min_chunk_rejected(self):
        with pytest.raises(ValueError):
            FactoringSource(4, W, factor=2.0, min_chunk=-1.0, phase="x")
        with pytest.raises(ValueError, match="min_chunk"):
            Factoring(min_chunk=-1.0)


class TestSelfScheduling:
    def test_initial_chunks_go_to_distinct_workers(self):
        p = platform(n=6)
        result = simulate(p, W, Factoring())
        first = [r.worker for r in result.records[:6]]
        assert sorted(first) == list(range(6))

    def test_workers_served_on_demand_under_error(self):
        # With strong errors the dispatch order adapts: every worker still
        # receives work and the schedule stays valid.
        p = platform(n=5)
        result = simulate(p, W, Factoring(), NormalErrorModel(0.4), seed=7)
        validate_schedule(result)
        assert {r.worker for r in result.records} == set(range(5))

    def test_deterministic_given_seed(self):
        p = platform()
        a = simulate(p, W, Factoring(), NormalErrorModel(0.3), seed=11)
        b = simulate(p, W, Factoring(), NormalErrorModel(0.3), seed=11)
        assert a.makespan == b.makespan
        assert [r.worker for r in a.records] == [r.worker for r in b.records]

    def test_robustness_beats_one_round_under_error(self):
        from repro.core.one_round import OneRound

        p = platform()
        err = NormalErrorModel(0.4)
        fact = sum(
            simulate(p, W, Factoring(), err, seed=s).makespan for s in range(10)
        )
        one = sum(simulate(p, W, OneRound(), err, seed=s).makespan for s in range(10))
        assert fact < one

    def test_remaining_property_decreases(self):
        src = FactoringSource(4, W, factor=2.0, min_chunk=1.0, phase="f")
        assert src.remaining == W

    def test_phase_label(self):
        result = simulate(platform(), W, Factoring())
        assert all(r.phase == "factoring" for r in result.records)
