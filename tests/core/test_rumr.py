"""Tests for RUMR: phase split, chunk floor, dispatch behaviour."""

import pytest

from repro.core import UMR, Factoring, RUMR
from repro.core.rumr import phase2_min_chunk, phase2_workload, round_overhead
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def platform(n=20, factor=1.8, cLat=0.3, nLat=0.1):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=factor, cLat=cLat, nLat=nLat)


class TestRoundOverhead:
    def test_homogeneous_formula(self):
        p = platform(n=20, cLat=0.3, nLat=0.1)
        assert round_overhead(p) == pytest.approx(0.3 + 20 * 0.1)

    def test_zero_latency(self):
        assert round_overhead(platform(cLat=0.0, nLat=0.0)) == 0.0


class TestPhaseSplit:
    def test_zero_error_means_pure_umr(self):
        assert phase2_workload(platform(), W, 0.0) == 0.0

    def test_error_above_one_means_pure_factoring(self):
        assert phase2_workload(platform(), W, 1.0) == W
        assert phase2_workload(platform(), W, 1.7) == W

    def test_intermediate_error_reserves_error_fraction(self):
        p = platform(cLat=0.1, nLat=0.0)  # tiny overhead, threshold passes
        assert phase2_workload(p, W, 0.3) == pytest.approx(0.3 * W)

    def test_per_worker_threshold_disables_phase2(self):
        # error*W/N < cLat + nLat*N  =>  no phase 2.
        p = platform(n=50, cLat=1.0, nLat=1.0)  # overhead = 51 per round
        # error=0.5: per-worker phase-2 work = 0.5*1000/50 = 10 < 51.
        assert phase2_workload(p, W, 0.5) == 0.0

    def test_total_threshold_variant(self):
        p = platform(n=50, cLat=1.0, nLat=1.0)  # overhead = 51
        # total rule: error*W = 500 >= 51, so phase 2 IS used.
        assert phase2_workload(p, W, 0.5, threshold_rule="total") == pytest.approx(500.0)

    def test_unknown_threshold_rule_rejected(self):
        with pytest.raises(ValueError):
            phase2_workload(platform(), W, 0.3, threshold_rule="maybe")

    def test_scheduler_split_known_error(self):
        p = platform(cLat=0.1, nLat=0.0)
        w1, w2 = RUMR(known_error=0.2).split(p, W)
        assert w2 == pytest.approx(0.2 * W)
        assert w1 + w2 == pytest.approx(W)

    def test_scheduler_split_unknown_error_uses_fixed_fraction(self):
        w1, w2 = RUMR(known_error=None).split(platform(), W)
        assert w1 == pytest.approx(0.8 * W)

    def test_fixed_fraction_bypasses_threshold(self):
        # Even where the error heuristic would skip phase 2, RUMR_90 must
        # reserve exactly 10% (the paper notes this explicitly for Fig 6).
        p = platform(n=50, cLat=1.0, nLat=1.0)
        w1, w2 = RUMR(known_error=0.1, phase1_fraction=0.9).split(p, W)
        assert w2 == pytest.approx(0.1 * W)


class TestMinChunk:
    def test_known_error_floor(self):
        p = platform(n=20, cLat=0.3, nLat=0.1)
        # (cLat + nLat*N) / error
        assert phase2_min_chunk(p, 0.2) == pytest.approx((0.3 + 2.0) / 0.2)

    def test_unknown_error_floor_is_hagerup_rule(self):
        p = platform(n=20, cLat=0.3, nLat=0.1)
        assert phase2_min_chunk(p, None) == pytest.approx(2.3)

    def test_absolute_floor_applies(self):
        p = platform(cLat=0.0, nLat=0.0)
        assert phase2_min_chunk(p, 0.3) == 1.0  # one workload unit


class TestDegenerateEquivalences:
    def test_rumr_zero_error_equals_umr(self):
        p = platform()
        a = simulate(p, W, RUMR(known_error=0.0), NoError())
        b = simulate(p, W, UMR(), NoError())
        assert a.makespan == b.makespan
        assert [r.size for r in a.records] == [r.size for r in b.records]

    def test_rumr_error_above_one_equals_factoring_structure(self):
        p = platform()
        result = simulate(p, W, RUMR(known_error=1.2))
        assert all(r.phase == "rumr-p2" for r in result.records)
        sizes = [r.size for r in result.records]
        assert all(b <= a + 1e-9 for a, b in zip(sizes, sizes[1:]))

    def test_rumr_with_real_error_runs_both_phases(self):
        p = platform(cLat=0.1, nLat=0.0)
        result = simulate(p, W, RUMR(known_error=0.3), NormalErrorModel(0.3), seed=5)
        phases = result.phase_work()
        p1 = sum(v for k, v in phases.items() if k.startswith("rumr-p1"))
        p2 = phases.get("rumr-p2", 0.0)
        assert p1 == pytest.approx(0.7 * W, rel=1e-6)
        assert p2 == pytest.approx(0.3 * W, rel=1e-6)
        validate_schedule(result)

    def test_phase1_precedes_phase2(self):
        p = platform(cLat=0.1, nLat=0.0)
        result = simulate(p, W, RUMR(known_error=0.3), NormalErrorModel(0.3), seed=5)
        labels = [r.phase for r in result.records]
        first_p2 = labels.index("rumr-p2")
        assert all(lab == "rumr-p2" for lab in labels[first_p2:])

    def test_phase1_chunks_increase(self):
        p = platform(cLat=0.1, nLat=0.0)
        result = simulate(p, W, RUMR(known_error=0.3))
        p1_sizes = [r.size for r in result.records if r.phase.startswith("rumr-p1")]
        n = p.N
        round_means = [
            sum(p1_sizes[i : i + n]) / n for i in range(0, len(p1_sizes) - n + 1, n)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(round_means[:-1], round_means[1:]))


class TestOutOfOrder:
    def test_plain_variant_keeps_planned_order_without_error(self):
        p = platform()
        a = simulate(p, W, RUMR(known_error=0.3, out_of_order=False))
        workers = [r.worker for r in a.records if r.phase.startswith("rumr-p1")]
        n = p.N
        for start in range(0, len(workers) - n + 1, n):
            assert workers[start : start + n] == list(range(n))

    def test_out_of_order_matches_plain_under_zero_error(self):
        # Without prediction errors no worker finishes prematurely, so the
        # greedy reordering never triggers (chunk at the head of a round
        # always goes to the lowest-index pending worker).
        p = platform()
        a = simulate(p, W, RUMR(known_error=0.3, out_of_order=True))
        b = simulate(p, W, RUMR(known_error=0.3, out_of_order=False))
        assert a.makespan == pytest.approx(b.makespan)

    def test_both_variants_valid_under_error(self):
        p = platform()
        for ooo in (True, False):
            r = simulate(
                p, W, RUMR(known_error=0.3, out_of_order=ooo), NormalErrorModel(0.3), seed=9
            )
            validate_schedule(r)

    def test_names(self):
        assert RUMR(known_error=0.2).name == "RUMR"
        assert RUMR(known_error=0.2, out_of_order=False).name == "RUMR-plain"
        assert RUMR(phase1_fraction=0.8).name == "RUMR_80"


class TestValidation:
    def test_bad_known_error_rejected(self):
        with pytest.raises(ValueError):
            RUMR(known_error=-0.1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            RUMR(phase1_fraction=1.5)

    def test_bad_threshold_rule_rejected(self):
        with pytest.raises(ValueError):
            RUMR(known_error=0.1, threshold_rule="sometimes")

    def test_bad_unknown_fraction_rejected(self):
        with pytest.raises(ValueError):
            RUMR(unknown_phase1_fraction=-0.2)

    @pytest.mark.parametrize("factor", [1.0, 0.5, float("nan")])
    def test_bad_phase2_factor_rejected(self, factor):
        # Rejected at construction, before either engine family runs it.
        with pytest.raises(ValueError, match="factor"):
            RUMR(known_error=0.3, factor=factor)

    def test_work_conservation_across_settings(self):
        p = platform(cLat=0.2, nLat=0.05)
        for err in (0.0, 0.1, 0.3, 0.7, 1.0, 2.0):
            result = simulate(p, W, RUMR(known_error=err), NormalErrorModel(0.3), seed=1)
            assert result.dispatched_work == pytest.approx(W, rel=1e-6)


class TestRobustnessStory:
    def test_rumr_beats_umr_under_large_error(self):
        p = platform(cLat=0.1, nLat=0.0)
        err = 0.4
        rumr_total, umr_total = 0.0, 0.0
        for s in range(12):
            em = NormalErrorModel(err)
            rumr_total += simulate(p, W, RUMR(known_error=err), em, seed=s).makespan
            umr_total += simulate(p, W, UMR(), em, seed=s).makespan
        assert rumr_total < umr_total

    def test_rumr_beats_factoring_under_small_error(self):
        p = platform()
        err = 0.05
        rumr_total, fact_total = 0.0, 0.0
        for s in range(12):
            em = NormalErrorModel(err)
            rumr_total += simulate(p, W, RUMR(known_error=err), em, seed=s).makespan
            fact_total += simulate(p, W, Factoring(), em, seed=s).makespan
        assert rumr_total < fact_total
