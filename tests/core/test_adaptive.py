"""Tests for AdaptiveRUMR and the online error estimator."""

import statistics

import pytest

from repro.core import RUMR, UMR, AdaptiveRUMR
from repro.core.adaptive import OnlineErrorEstimator
from repro.core.base import CompletionNote
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def platform(n=20, cLat=0.3, nLat=0.1):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=1.8, cLat=cLat, nLat=nLat)


class _FakeView:
    """Minimal MasterView stand-in feeding canned completion notes."""

    def __init__(self, notes):
        self._notes = tuple(notes)

    def observed_completions(self):
        return self._notes


class TestOnlineErrorEstimator:
    def test_no_estimate_before_two_samples(self):
        est = OnlineErrorEstimator(platform(n=2))
        assert est.estimate() is None

    def test_exact_intervals_give_zero_error(self):
        p = platform(n=1, cLat=0.0)
        est = OnlineErrorEstimator(p)
        # Chunks of 10 units back to back: intervals exactly 10 s.
        notes = [
            CompletionNote(time=10.0 * (k + 1), chunk_index=k, worker=0, size=10.0)
            for k in range(6)
        ]
        est.consume(_FakeView(notes))
        assert est.samples == 5
        assert est.estimate() == pytest.approx(0.0, abs=1e-12)

    def test_noisy_intervals_recover_magnitude(self):
        import numpy as np

        p = platform(n=1, cLat=0.0)
        est = OnlineErrorEstimator(p)
        rng = np.random.default_rng(3)
        t = 0.0
        notes = []
        for k in range(400):
            t += 10.0 * rng.normal(1.0, 0.25)
            notes.append(CompletionNote(time=t, chunk_index=k, worker=0, size=10.0))
        est.consume(_FakeView(notes))
        assert est.estimate() == pytest.approx(0.25, abs=0.04)

    def test_outlier_intervals_discarded(self):
        p = platform(n=1, cLat=0.0)
        est = OnlineErrorEstimator(p)
        notes = [
            CompletionNote(time=10.0, chunk_index=0, worker=0, size=10.0),
            # A 100 s gap (worker idled): must not poison the estimate.
            CompletionNote(time=110.0, chunk_index=1, worker=0, size=10.0),
            CompletionNote(time=120.0, chunk_index=2, worker=0, size=10.0),
        ]
        est.consume(_FakeView(notes))
        assert est.samples == 1  # only the 110->120 interval

    def test_incremental_consumption(self):
        p = platform(n=1, cLat=0.0)
        est = OnlineErrorEstimator(p)
        notes = [
            CompletionNote(time=10.0 * (k + 1), chunk_index=k, worker=0, size=10.0)
            for k in range(4)
        ]
        est.consume(_FakeView(notes[:2]))
        first = est.samples
        est.consume(_FakeView(notes))
        assert est.samples == 3 and first == 1


class TestAdaptiveRUMR:
    def test_zero_error_stays_pure_umr(self):
        p = platform()
        a = simulate(p, W, AdaptiveRUMR(), NoError())
        b = simulate(p, W, UMR(), NoError())
        assert a.makespan == pytest.approx(b.makespan)
        assert all(r.phase.startswith("adaptive-p1") for r in a.records)

    def test_switches_to_phase2_under_error(self):
        p = platform()
        result = simulate(p, W, AdaptiveRUMR(), NormalErrorModel(0.4), seed=2)
        phases = {r.phase.split("-round")[0] for r in result.records}
        assert "adaptive-p2" in phases
        validate_schedule(result)

    def test_work_conserved(self):
        p = platform()
        for err, seed in [(0.1, 0), (0.3, 1), (0.6, 2)]:
            result = simulate(p, W, AdaptiveRUMR(), NormalErrorModel(err), seed=seed)
            assert result.dispatched_work == pytest.approx(W, rel=1e-9)

    def test_recovers_most_of_oracle_gap(self):
        # Mean over seeds: adaptive must close at least half the gap between
        # UMR (no robustness) and RUMR with the true error (oracle).
        p = platform()
        err = 0.4
        def mean(sched):
            return statistics.mean(
                simulate(p, W, sched, NormalErrorModel(err), seed=s).makespan
                for s in range(15)
            )
        umr = mean(UMR())
        oracle = mean(RUMR(known_error=err))
        adaptive = mean(AdaptiveRUMR())
        assert oracle < umr  # the gap exists at all
        assert adaptive < umr - 0.5 * (umr - oracle)

    def test_estimator_diagnostics_exposed(self):
        p = platform()
        sched = AdaptiveRUMR()
        source = sched.create_source(p, W)
        assert source.switched_at is None
        result = None
        # Drive through the public simulate() path with a probing subclass.
        class Probe(AdaptiveRUMR):
            def create_source(self, platform_, total_work):
                self.last = super().create_source(platform_, total_work)
                return self.last

        probe = Probe()
        result = simulate(p, W, probe, NormalErrorModel(0.4), seed=5)
        assert result is not None
        assert probe.last.switched_at is not None
        assert probe.last.final_estimate is not None
        assert 0.0 < probe.last.final_estimate < 1.0

    def test_engines_identical(self):
        p = platform()
        f = simulate(p, W, AdaptiveRUMR(), NormalErrorModel(0.3), seed=9, engine="fast")
        d = simulate(p, W, AdaptiveRUMR(), NormalErrorModel(0.3), seed=9, engine="des")
        assert f.makespan == d.makespan
        assert f.records == d.records

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRUMR(min_samples=1)

    def test_bad_factor_rejected(self):
        # Rejected at construction, not at the switch mid-run.
        with pytest.raises(ValueError, match="factor"):
            AdaptiveRUMR(factor=0.5)

    def test_registered(self):
        from repro.core import available_schedulers, make_scheduler

        assert "AdaptiveRUMR" in available_schedulers()
        assert isinstance(make_scheduler("AdaptiveRUMR", 0.3), AdaptiveRUMR)
