"""Tests for the heterogeneity extension study."""

import pytest

from repro.core import RUMR, UMR, Factoring
from repro.experiments.hetero import (
    HeteroResult,
    heterogeneous_platform_family,
    run_hetero_study,
)
from repro.platform import full_utilization_fraction


class TestPlatformFamily:
    def test_zero_level_is_homogeneous(self):
        p = heterogeneous_platform_family(10, 0.0)
        assert p.is_homogeneous
        assert p[0].B == pytest.approx(18.0)

    def test_aggregate_compute_rate_preserved(self):
        base = heterogeneous_platform_family(12, 0.0)
        for level in (0.5, 1.0, 3.0):
            p = heterogeneous_platform_family(12, level)
            assert p.total_compute_rate() == pytest.approx(base.total_compute_rate())

    def test_utilization_margin_preserved(self):
        base = heterogeneous_platform_family(12, 0.0)
        for level in (0.5, 2.0):
            p = heterogeneous_platform_family(12, level)
            assert full_utilization_fraction(p) == pytest.approx(
                full_utilization_fraction(base), rel=1e-9
            )

    def test_spread_grows_with_level(self):
        lo = heterogeneous_platform_family(20, 0.5)
        hi = heterogeneous_platform_family(20, 4.0)
        def spread(p):
            speeds = [w.S for w in p]
            return max(speeds) / min(speeds)
        assert spread(hi) > spread(lo) > 1.0

    def test_deterministic_in_seed(self):
        a = heterogeneous_platform_family(8, 1.0, seed=5)
        b = heterogeneous_platform_family(8, 1.0, seed=5)
        c = heterogeneous_platform_family(8, 1.0, seed=6)
        assert a == b
        assert a != c

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_platform_family(4, -0.1)


class TestStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_hetero_study(
            {
                "RUMR": lambda: RUMR(known_error=0.3),
                "RUMR-weighted": lambda: RUMR(known_error=0.3, phase2_weighted=True),
                "UMR": lambda: UMR(),
                "Factoring": lambda: Factoring(),
            },
            levels=(0.0, 1.0, 3.0),
            n=8,
            repetitions=8,
        )

    def test_result_shape(self, study):
        assert isinstance(study, HeteroResult)
        assert set(study.means) == {"RUMR", "RUMR-weighted", "UMR", "Factoring"}
        assert all(len(v) == 3 for v in study.means.values())

    def test_makespans_positive(self, study):
        assert all(v > 0 for vs in study.means.values() for v in vs)

    def test_normalization(self, study):
        normalized = study.normalized_to("RUMR")
        assert "RUMR" not in normalized
        assert all(len(v) == 3 for v in normalized.values())

    def test_rumr_beats_umr_at_low_heterogeneity(self, study):
        normalized = study.normalized_to("RUMR")
        assert normalized["UMR"][0] > 1.0
        assert normalized["UMR"][1] > 1.0

    def test_plain_phase2_chokes_at_high_heterogeneity(self, study):
        # Plain factoring's equal phase-2 chunks make the slowest worker
        # the straggler of every batch: at 3x spread RUMR loses to UMR.
        assert study.means["RUMR"][-1] > study.means["UMR"][-1]

    def test_weighted_phase2_restores_advantage(self, study):
        # The WeightedFactoring phase 2 keeps RUMR ahead at every level.
        weighted = study.means["RUMR-weighted"]
        assert all(w < u * 1.02 for w, u in zip(weighted, study.means["UMR"]))
        assert weighted[-1] < study.means["RUMR"][-1]

    def test_factoring_collapses_under_heterogeneity(self, study):
        fact = study.means["Factoring"]
        assert fact[-1] > 1.5 * fact[0]

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_no_repetitions_rejected(self, repetitions):
        with pytest.raises(ValueError, match="repetitions"):
            run_hetero_study(
                {"UMR": lambda: UMR()}, levels=(0.0,), n=4, repetitions=repetitions
            )
