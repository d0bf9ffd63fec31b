"""Tests for result returns and multi-port masters on the star.

Both are star link options of the DES engine (``star:ports=K,out=R``, see
:mod:`repro.platform.topology`); :func:`repro.sim.simulate` routes them to
it whatever ``engine`` says.
"""

import pytest

from repro.core import RUMR, UMR, Factoring
from repro.errors import NoError, NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, simulate_fast, validate_schedule

pytestmark = pytest.mark.topology

W = 500.0


def platform(n=8, cLat=0.2, nLat=0.1):
    return homogeneous_platform(n, S=1.0, bandwidth_factor=1.5, cLat=cLat, nLat=nLat)


def run(p, scheduler, model=None, ports=1, out=0.0, seed=None):
    return simulate(
        p, W, scheduler, model, seed=seed, topology=f"star:ports={ports},out={out!r}"
    )


class TestZeroRatioEquivalence:
    @pytest.mark.parametrize("sched_factory", [UMR, Factoring], ids=["UMR", "Factoring"])
    def test_matches_standard_engine_exactly(self, sched_factory):
        p = platform()
        a = simulate_fast(p, W, sched_factory(), NormalErrorModel(0.3), seed=4)
        b = simulate(
            p, W, sched_factory(), NormalErrorModel(0.3), seed=4, engine="des",
            topology="star:ports=1,out=0",
        )
        assert b.makespan == a.makespan
        assert b.compute_makespan == a.makespan
        assert b.returns == ()
        assert len(b.records) == len(a.records)


class TestReturnTraffic:
    def test_every_chunk_produces_one_return(self):
        p = platform()
        r = run(p, UMR(), out=0.2)
        assert len(r.returns) == len(r.records)

    def test_return_sizes_scale_with_ratio(self):
        p = platform()
        r = run(p, UMR(), out=0.25)
        by_index = {rec.index: rec.size for rec in r.records}
        for ret in r.returns:
            assert ret.output_size == pytest.approx(0.25 * by_index[ret.chunk_index])

    def test_makespan_monotone_in_ratio(self):
        p = platform()
        spans = [run(p, UMR(), out=ratio).makespan for ratio in (0.0, 0.2, 0.5, 1.0)]
        assert spans == sorted(spans)

    def test_returns_start_after_compute(self):
        p = platform()
        r = run(p, UMR(), out=0.3)
        ends = {rec.index: rec.comp_end for rec in r.records}
        for ret in r.returns:
            assert ret.link_start >= ends[ret.chunk_index] - 1e-12

    def test_link_serialization_includes_returns(self):
        # No two link occupations (sends or returns) overlap: one port.
        r = run(platform(), UMR(), out=0.5)
        assert r.returns
        validate_schedule(r)

    def test_makespan_includes_last_return(self):
        p = platform()
        r = run(p, UMR(), out=0.5)
        assert r.makespan >= r.compute_makespan
        assert r.makespan == pytest.approx(
            max(ret.received for ret in r.returns)
        )

    def test_compute_makespan_is_last_delivered_completion(self):
        r = run(platform(), UMR(), out=0.5)
        assert r.compute_makespan == max(rec.comp_end for rec in r.records)
        assert r.compute_makespan < r.makespan

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            run(platform(), UMR(), out=-0.1)


class TestMultiPort:
    def test_default_is_one_port(self):
        p = platform()
        a = simulate(p, W, UMR(), NoError(), topology="star:out=0")
        b = simulate(p, W, UMR(), NoError(), topology="star:ports=1")
        assert a.makespan == b.makespan

    def test_extra_ports_never_hurt_static_plans(self):
        p = homogeneous_platform(12, S=1.0, bandwidth_factor=1.3, cLat=0.2, nLat=0.3)
        spans = [run(p, UMR(), ports=k).makespan for k in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)

    def test_multiport_helps_at_high_nlat(self):
        # The paper's conjecture (§3.1): simultaneous transfers could be
        # beneficial — most visibly where per-transfer latency dominates.
        p = homogeneous_platform(12, S=1.0, bandwidth_factor=1.3, cLat=0.2, nLat=0.3)
        one = run(p, UMR(), ports=1)
        four = run(p, UMR(), ports=4)
        assert four.makespan < 0.95 * one.makespan

    def test_concurrent_link_occupancy_bounded_by_ports(self):
        # At most two link occupations (sends and returns) at once, and
        # the second port is used.
        r = run(platform(), UMR(), ports=2, out=0.3)
        validate_schedule(r)
        sends = sorted((rec.send_start, rec.send_end) for rec in r.records)
        assert any(b0 < a1 for (_, a1), (b0, _) in zip(sends, sends[1:]))

    def test_bad_ports_rejected(self):
        with pytest.raises(ValueError):
            run(platform(), UMR(), ports=0)

    def test_multiport_with_returns_and_errors(self):
        p = platform()
        r = run(p, RUMR(known_error=0.3), NormalErrorModel(0.3), ports=3, out=0.3, seed=5)
        assert r.makespan > 0
        assert sum(rec.size for rec in r.records) == pytest.approx(W, rel=1e-9)
        validate_schedule(r)


class TestSchedulersUnderOutputTraffic:
    def test_dynamic_schedulers_run(self):
        p = platform()
        for sched in (Factoring(), RUMR(known_error=0.3)):
            r = run(p, sched, NormalErrorModel(0.3), out=0.3, seed=2)
            assert r.makespan > 0
            assert sum(rec.size for rec in r.records) == pytest.approx(W, rel=1e-9)

    def test_rumr_advantage_survives_moderate_output(self):
        import statistics

        p = platform()
        err = 0.4

        def mean(sched_factory):
            return statistics.mean(
                run(p, sched_factory(), NormalErrorModel(err), out=0.2, seed=s).makespan
                for s in range(10)
            )

        assert mean(lambda: RUMR(known_error=err)) < mean(UMR)


class TestFaultsWithReturns:
    def test_lost_chunks_send_no_return(self):
        r = simulate(
            platform(), W, Factoring(), NormalErrorModel(0.2), seed=3,
            faults="crash:worker=1,at=20", topology="star:ports=2,out=0.3",
        )
        assert r.work_lost > 0
        returned = {ret.chunk_index for ret in r.returns}
        assert returned == {rec.index for rec in r.records if not rec.lost}
        validate_schedule(r)

    def test_finished_chunks_return_after_a_later_crash(self):
        # The crash stops computation, not the link: a chunk computed
        # before its worker died still ships its results.
        r = simulate(
            platform(), W, Factoring(), NoError(), seed=3,
            faults="crash:worker=1,at=37", topology="star:out=0.3",
        )
        survivors = {rec.index for rec in r.records if rec.worker == 1 and not rec.lost}
        late = [ret for ret in r.returns if ret.worker == 1 and ret.link_start > 37]
        assert survivors and late
        assert survivors == {ret.chunk_index for ret in r.returns if ret.worker == 1}
        validate_schedule(r)
