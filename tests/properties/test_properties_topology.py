"""Property-based tests (hypothesis) for the topology layer.

Three invariant families guard the topology abstraction:

* **spec-grammar round-trip** — ``make_topology(str(t)) == t`` for every
  constructible topology, and the canonical string is a fixed point
  (parsing it and re-rendering changes nothing).
* **star degeneracy** — topologies that collapse to a star (a chain over
  one worker, a tree whose fanout covers every worker) must be *bitwise*
  identical to the plain star engines: same makespan float, same record
  list, on both engines.
* **work conservation across relays** — relay hops delay chunks but never
  create, destroy or split work: on a fault-free run every scheduled
  record is delivered, sizes sum to the workload, and no chunk arrives
  before its send finished.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RUMR, Factoring
from repro.errors import NormalErrorModel, NoError
from repro.platform import (
    ChainTopology,
    SharedBandwidthTopology,
    StarTopology,
    TreeTopology,
    homogeneous_platform,
    make_topology,
)
from repro.sim import simulate
from tests.properties.strategies import finite, seeds

pytestmark = [pytest.mark.property, pytest.mark.topology]

# Optional worker-count pin shared by the grammars that accept one.
_counts = st.one_of(st.none(), st.integers(min_value=1, max_value=64))

#: Any constructible topology, across all four kinds.
topologies = st.one_of(
    st.builds(
        StarTopology,
        n=_counts,
        ports=st.integers(min_value=1, max_value=8),
        out=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=4.0, **finite)
        ),
    ),
    st.builds(ChainTopology, n=_counts, relay=st.sampled_from(["sf", "ct"])),
    st.builds(
        TreeTopology,
        fanout=st.integers(min_value=1, max_value=16),
        n=_counts,
    ),
    st.builds(
        SharedBandwidthTopology,
        cap=st.floats(min_value=0.1, max_value=1000.0, **finite),
        n=_counts,
    ),
)

#: Small homogeneous platforms; relay chains amplify latency so keep the
#: ranges modest for runtime.
small_platforms = st.builds(
    lambda n, factor, clat, nlat: homogeneous_platform(
        n, S=1.0, bandwidth_factor=factor, cLat=clat, nLat=nlat
    ),
    n=st.integers(min_value=2, max_value=8),
    factor=st.floats(min_value=1.1, max_value=3.0, **finite),
    clat=st.floats(min_value=0.0, max_value=0.5, **finite),
    nlat=st.floats(min_value=0.0, max_value=0.5, **finite),
)


class TestSpecGrammarRoundTrip:
    @given(topo=topologies)
    def test_parse_str_round_trips(self, topo):
        assert make_topology(str(topo)) == topo

    @given(topo=topologies)
    def test_canonical_string_is_fixed_point(self, topo):
        canonical = str(topo)
        assert str(make_topology(canonical)) == canonical

    @given(topo=topologies)
    def test_make_topology_is_idempotent_on_instances(self, topo):
        # Passing an already-built topology through the factory is the
        # identity, so call sites can accept str-or-Topology uniformly.
        assert make_topology(topo) is topo


class TestStarDegeneracy:
    @given(
        factor=st.floats(min_value=1.1, max_value=3.0, **finite),
        clat=st.floats(min_value=0.0, max_value=0.5, **finite),
        error=st.floats(min_value=0.0, max_value=0.4, **finite),
        seed=seeds(),
        relay=st.sampled_from(["sf", "ct"]),
        engine=st.sampled_from(["fast", "des"]),
    )
    @settings(max_examples=30)
    def test_chain_of_one_worker_is_star(
        self, factor, clat, error, seed, relay, engine
    ):
        platform = homogeneous_platform(1, bandwidth_factor=factor, cLat=clat)
        model = NormalErrorModel(error) if error else NoError()
        base = simulate(
            platform, 200.0, RUMR(known_error=error), model, seed=seed, engine=engine
        )
        chained = simulate(
            platform,
            200.0,
            RUMR(known_error=error),
            model,
            seed=seed,
            engine=engine,
            topology=f"chain:n=1,relay={relay}",
        )
        assert chained.makespan == base.makespan  # bitwise, not approx
        assert chained.records == base.records

    @given(
        platform=small_platforms,
        extra_fanout=st.integers(min_value=0, max_value=4),
        error=st.floats(min_value=0.0, max_value=0.4, **finite),
        seed=seeds(),
        engine=st.sampled_from(["fast", "des"]),
    )
    @settings(max_examples=30)
    def test_tree_with_full_fanout_is_star(
        self, platform, extra_fanout, error, seed, engine
    ):
        # fanout >= N puts every worker in its own sub-star root slot:
        # no relays, so the run must equal the plain star bit for bit.
        fanout = len(platform.workers) + extra_fanout
        model = NormalErrorModel(error) if error else NoError()
        base = simulate(
            platform, 300.0, Factoring(), model, seed=seed, engine=engine
        )
        treed = simulate(
            platform,
            300.0,
            Factoring(),
            model,
            seed=seed,
            engine=engine,
            topology=f"tree:fanout={fanout}",
        )
        assert treed.makespan == base.makespan
        assert treed.records == base.records


class TestRelayWorkConservation:
    @given(
        platform=small_platforms,
        work=st.floats(min_value=50.0, max_value=2000.0, **finite),
        error=st.floats(min_value=0.0, max_value=0.4, **finite),
        seed=seeds(),
        spec=st.sampled_from(
            ["chain:relay=sf", "chain:relay=ct", "tree:fanout=2", "tree:fanout=3"]
        ),
        engine=st.sampled_from(["fast", "des"]),
    )
    @settings(max_examples=40)
    def test_relays_conserve_work(self, platform, work, error, seed, spec, engine):
        model = NormalErrorModel(error) if error else NoError()
        result = simulate(
            platform,
            work,
            RUMR(known_error=error),
            model,
            seed=seed,
            engine=engine,
            topology=spec,
        )
        # Fault-free: nothing is lost, the scheduled sizes cover the
        # workload exactly, and relay hops only ever delay a chunk.
        assert not any(r.lost for r in result.records)
        assert sum(r.size for r in result.records) == pytest.approx(work, rel=1e-7)
        assert all(r.arrival >= r.send_end for r in result.records)
        assert result.topology == str(make_topology(spec))

    @given(
        platform=small_platforms,
        work=st.floats(min_value=50.0, max_value=2000.0, **finite),
        seed=seeds(),
        cap=st.floats(min_value=0.5, max_value=4.0, **finite),
    )
    @settings(max_examples=20)
    def test_shared_bandwidth_conserves_work(self, platform, work, seed, cap):
        result = simulate(
            platform,
            work,
            Factoring(),
            NormalErrorModel(0.2),
            seed=seed,
            topology=f"sharedbw:cap={cap}",
        )
        assert not any(r.lost for r in result.records)
        assert sum(r.size for r in result.records) == pytest.approx(work, rel=1e-7)
