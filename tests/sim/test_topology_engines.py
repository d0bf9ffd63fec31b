"""Engine-level behavior of the topology layer.

The exact cross-engine equality lives in ``test_differential.py``; this
module covers the behaviors that are not equality claims: relay delays
actually delaying things, ``link_hop`` emission, the sharedbw routing
and rejection rules, and fault interaction on relayed paths.
"""

import math

import pytest

from repro.core import RUMR, Factoring
from repro.errors import NoError, NormalErrorModel
from repro.obs import Tracer
from repro.platform import homogeneous_platform, make_topology
from repro.sim import simulate, validate_schedule
from repro.sim.engine import simulate_des
from repro.sim.fastsim import simulate_fast

pytestmark = pytest.mark.topology


def _platform(n=4):
    return homogeneous_platform(n, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


class TestRelayDelays:
    def test_chain_is_slower_than_star(self):
        p = _platform()
        star = simulate(p, 400.0, Factoring(), NoError())
        for spec in ("chain:relay=sf", "chain:relay=ct", "tree:fanout=2"):
            shaped = simulate(p, 400.0, Factoring(), NoError(), topology=spec)
            assert shaped.makespan > star.makespan, spec

    def test_sf_no_faster_than_ct(self):
        # Store-and-forward serializes every hop; cut-through only the
        # first link.  Same platform, same plan: sf can never win.
        p = _platform(6)
        sf = simulate(p, 400.0, RUMR(known_error=0.0), NoError(),
                      topology="chain:relay=sf")
        ct = simulate(p, 400.0, RUMR(known_error=0.0), NoError(),
                      topology="chain:relay=ct")
        assert sf.makespan >= ct.makespan

    def test_arrival_includes_relay_time(self):
        p = _platform()
        result = simulate(p, 400.0, Factoring(), NoError(),
                          topology="chain:relay=sf")
        bound = make_topology("chain:relay=sf").bind(p)
        for r in result.records:
            hops = bound.paths[r.worker].hops
            lower = sum(h.hop_time(r.size) for h in hops)
            assert r.arrival >= r.send_end + lower - 1e-12

    def test_topology_recorded_on_result(self):
        p = _platform()
        r = simulate(p, 200.0, Factoring(), NoError(), topology="tree:fanout=2")
        assert r.topology == "tree:fanout=2"
        assert simulate(p, 200.0, Factoring(), NoError()).topology == "star"


class TestLinkHopEvents:
    def test_chain_emits_link_hops_on_both_engines(self):
        p = _platform()
        for engine in ("fast", "des"):
            tracer = Tracer()
            simulate(p, 300.0, Factoring(), NoError(), engine=engine,
                     topology="chain:relay=sf", tracer=tracer)
            hops = [e for e in tracer.canonical() if e.kind == "link_hop"]
            assert hops, engine
            assert all(e.detail.startswith("link=") for e in hops)

    def test_star_emits_none(self):
        tracer = Tracer()
        simulate(_platform(), 300.0, Factoring(), NoError(),
                 topology="star", tracer=tracer)
        assert not any(e.kind == "link_hop" for e in tracer.canonical())

    def test_cut_through_emits_none(self):
        # ct paths have no contended relay resources, hence no hop events.
        tracer = Tracer()
        simulate(_platform(), 300.0, Factoring(), NoError(),
                 topology="chain:relay=ct", tracer=tracer)
        assert not any(e.kind == "link_hop" for e in tracer.canonical())


class TestSharedBandwidth:
    def test_fast_engine_declines(self):
        with pytest.raises(ValueError, match="DES"):
            simulate_fast(_platform(), 200.0, Factoring(), NoError(),
                          topology=make_topology("sharedbw:cap=2"))

    def test_simulate_reroutes_fast_to_des(self):
        p = _platform()
        via_fast = simulate(p, 200.0, Factoring(), NormalErrorModel(0.2),
                            seed=7, engine="fast", topology="sharedbw:cap=2")
        via_des = simulate(p, 200.0, Factoring(), NormalErrorModel(0.2),
                           seed=7, engine="des", topology="sharedbw:cap=2")
        assert via_fast.makespan == via_des.makespan
        assert via_fast.records == via_des.records

    def test_tighter_cap_never_faster(self):
        p = _platform()
        wide = simulate(p, 300.0, Factoring(), NoError(), topology="sharedbw:cap=24")
        tight = simulate(p, 300.0, Factoring(), NoError(), topology="sharedbw:cap=1.5")
        assert tight.makespan >= wide.makespan

    def test_schedule_validates_without_link_serialization(self):
        # Concurrent transfers overlap by design; validate_schedule must
        # accept the run (it skips the exclusive-link assertion).
        result = simulate(_platform(), 300.0, Factoring(), NormalErrorModel(0.3),
                          seed=11, topology="sharedbw:cap=2")
        validate_schedule(result, rel_tol=1e-7)
        assert result.topology == "sharedbw:cap=2"

    @pytest.mark.parametrize("scheduler", [Factoring(), RUMR(known_error=0.3)],
                             ids=["factoring", "rumr"])
    def test_records_hold_realized_timelines(self, scheduler):
        # The master writes send_start into every timeline field when it
        # registers a shared transfer; the realizing processes must have
        # overwritten all of them by the time the records are built.
        p = homogeneous_platform(4, bandwidth_factor=1.5, cLat=0.2, nLat=0.1,
                                 tLat=0.05)
        tracer = Tracer()
        result = simulate_des(p, 300.0, scheduler, NormalErrorModel(0.3), seed=11,
                              topology=make_topology("sharedbw:cap=2"),
                              tracer=tracer)
        realized = {(e.kind, e.chunk): e.time for e in tracer.events()
                    if e.kind in ("dispatch_end", "comp_start", "comp_end")}
        assert result.records
        for r in result.records:
            assert r.send_end > r.send_start
            assert r.send_end == realized[("dispatch_end", r.index)]
            assert r.arrival == r.send_end + p[r.worker].tLat
            assert r.comp_start == realized[("comp_start", r.index)]
            assert r.comp_start >= r.arrival
            assert r.comp_end == realized[("comp_end", r.index)]
            assert r.comp_end > r.comp_start

    def test_faults_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            simulate(_platform(), 200.0, Factoring(), NoError(),
                     topology="sharedbw:cap=2", faults="crash:worker=0,at=25")


class TestFaultsOnRelays:
    @pytest.mark.parametrize("spec", ["chain:relay=sf", "chain:relay=ct",
                                      "tree:fanout=2"])
    def test_crash_recovery_completes(self, spec):
        p = _platform(5)
        result = simulate(p, 400.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
                          seed=2003, faults="crash:worker=1,at=30", topology=spec)
        validate_schedule(result, rel_tol=1e-7)
        lost = sum(r.size for r in result.records if r.lost)
        delivered = sum(r.size for r in result.records if not r.lost)
        assert delivered == pytest.approx(400.0, rel=1e-7)
        assert math.isfinite(result.makespan)
        assert lost >= 0.0

    def test_validation_covers_relay_runs(self):
        result = simulate_des(_platform(), 300.0, Factoring(),
                              NormalErrorModel(0.2), seed=5,
                              topology=make_topology("chain:relay=sf"))
        validate_schedule(result, rel_tol=1e-7)
