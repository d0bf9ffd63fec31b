"""Run bindings are derived once per input and replayed on every later run.

A static plan depends only on ``(platform, total_work)`` and a bound
topology only on ``(topology, platform)``, so repeated ``simulate()``
calls must not rebuild them: each registry static scheduler's
:class:`~repro.core.chunks.ChunkPlan` (and its dispatch tuple), each
``Topology.bind`` and each ``effective_platform`` is built once.  These
guards fail if a per-call rebuild comes back; the memos must also leave
every trajectory bitwise unchanged and stay within their bounds.
"""

import dataclasses

import pytest

from repro.core import multi_installment, one_round, umr
from repro.core.base import Dispatch
from repro.core.chunks import ChunkPlan
from repro.core.registry import make_scheduler
from repro.errors import CrashFaults, NormalErrorModel
from repro.platform import homogeneous_platform, topology
from repro.platform.spec import PlatformSpec
from repro.platform.topology import ChainTopology, StarTopology, bind_once, make_topology
from repro.sim import batch, simulate
from repro.sim.multijob import simulate_stream

STATIC = ("UMR", "MI-2", "OneRound", "EqualSplit")
DYNAMIC = ("RUMR", "Factoring")
TOPOLOGIES = (None, "chain:relay=sf", "chain:relay=ct")
ENGINES = ("fast", "des")
W = 500.0


def _platform():
    return homogeneous_platform(5, bandwidth_factor=1.7, cLat=0.3, nLat=0.05)


def _clear_memos():
    """Forget every run binding, so the next run builds each one cold."""
    umr.solve_umr.cache_clear()
    multi_installment.solve_multi_installment.cache_clear()
    one_round._one_round_plan.cache_clear()
    one_round._equal_split_plan.cache_clear()
    topology._BIND_CACHE.clear()


def _run(platform, name, engine, topo, seed=7, faults=None):
    return simulate(
        platform, W, make_scheduler(name, 0.2), NormalErrorModel(0.2),
        seed=seed, engine=engine, topology=topo, faults=faults,
    )


def _bits(result):
    """A run's makespan and records with every float as its exact bits."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return (
        result.makespan.hex(),
        result.work_lost.hex(),
        tuple(tuple(map(exact, dataclasses.astuple(r))) for r in result.records),
    )


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)
    key = f"{owner.__name__}.{name}"

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("name", STATIC + DYNAMIC)
def test_bind_once_builds_each_product_once(monkeypatch, engine, topo, name):
    platform = _platform()
    _clear_memos()
    counts: dict[str, int] = {}
    kind = ChainTopology if topo else StarTopology
    _count_calls(monkeypatch, kind, "bind", counts)
    _count_calls(monkeypatch, kind, "effective_platform", counts)
    _count_calls(monkeypatch, ChunkPlan, "__init__", counts)
    _count_calls(monkeypatch, Dispatch, "__init__", counts)
    for seed in range(3):
        _run(platform, name, engine, topo, seed=seed)
    assert counts[f"{kind.__name__}.bind"] == 1
    assert counts[f"{kind.__name__}.effective_platform"] == 1
    if name in STATIC:
        plan = make_scheduler(name).static_plan(
            bind_once(make_topology(topo), platform).effective_platform, W
        )
        assert counts["ChunkPlan.__init__"] == 1
        assert counts["Dispatch.__init__"] == len(plan)
    else:
        assert "ChunkPlan.__init__" not in counts


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("name", STATIC + DYNAMIC)
def test_bind_once_cold_and_warm_runs_bitwise_equal(engine, topo, name):
    platform = _platform()
    faults = CrashFaults(prob=0.4, tmax=150.0)
    _clear_memos()
    cold = [_bits(_run(platform, name, engine, topo, seed=s)) for s in (1, 2)]
    cold.append(_bits(_run(platform, name, engine, topo, seed=3, faults=faults)))
    warm = [_bits(_run(platform, name, engine, topo, seed=s)) for s in (1, 2)]
    warm.append(_bits(_run(platform, name, engine, topo, seed=3, faults=faults)))
    assert cold == warm
    # An equal but distinct platform object binds on its own and still
    # gives the same bits.
    other = _platform()
    assert other == platform and other is not platform
    again = _bits(_run(other, name, engine, topo, seed=1))
    assert again == cold[0]


@pytest.mark.parametrize("name", STATIC)
def test_bind_once_shared_dispatch_tuple_sources_do_not_interfere(name):
    platform = _platform()
    scheduler = make_scheduler(name)
    plan = scheduler.static_plan(platform, W)
    first = scheduler.create_source(platform, W)
    second = scheduler.create_source(platform, W)
    assert first._plan is second._plan is plan.dispatches
    assert scheduler.static_plan(platform, W) is plan
    taken_first = [first.next_dispatch(None) for _ in range(2)]
    assert second.remaining_dispatches == len(plan)
    taken_second = []
    while (action := second.next_dispatch(None)) is not None:
        taken_second.append(action)
    assert first.remaining_dispatches == len(plan) - 2
    while (action := first.next_dispatch(None)) is not None:
        taken_first.append(action)
    expected = [Dispatch(c.worker, c.size, c.phase) for c in plan]
    assert taken_first == taken_second == expected
    assert scheduler.create_source(platform, W).remaining_dispatches == len(plan)


def test_bind_once_keys_platforms_by_identity():
    chain = ChainTopology(relay="sf")
    platform = _platform()
    bound = bind_once(chain, platform)
    assert bind_once(ChainTopology(relay="sf"), platform) is bound
    assert bound.effective_platform is bound.effective_platform
    assert bound.effective_platform[0] is platform[0]
    other = _platform()
    rebound = bind_once(chain, other)
    assert rebound is not bound
    assert rebound.effective_platform[0] is other[0]
    assert bound.direct == (True, False, False, False, False)


def test_bind_once_memos_stay_bounded(monkeypatch):
    monkeypatch.setattr(topology, "_BIND_CACHE", {})
    monkeypatch.setattr(topology, "_BIND_CACHE_MAX", 3)
    chain = ChainTopology(relay="ct")
    platforms = [homogeneous_platform(n, bandwidth_factor=1.5) for n in range(2, 7)]
    for p in platforms:
        bind_once(chain, p)
        assert len(topology._BIND_CACHE) <= 3
    held = [bound.platform for bound in topology._BIND_CACHE.values()]
    assert held == platforms[-3:]  # first in, first out

    monkeypatch.setattr(batch, "_COMPILE_CACHE", {})
    monkeypatch.setattr(batch, "_COMPILE_CACHE_MAX", 2)
    for p in platforms:
        batch.compile_static_plan(p, umr.solve_umr(p, W).to_chunk_plan())
        assert len(batch._COMPILE_CACHE) <= 2
    # The cached plans live and die with their solved plans.
    for solver in (umr.solve_umr, multi_installment.solve_multi_installment,
                   one_round._one_round_plan, one_round._equal_split_plan):
        assert solver.cache_info().maxsize is not None


def test_bind_once_stream_reuses_sub_platforms(monkeypatch):
    platform = _platform()
    calls = []
    original = PlatformSpec.subset

    def counted(self, indices):
        calls.append(tuple(indices))
        return original(self, indices)

    monkeypatch.setattr(PlatformSpec, "subset", counted)
    simulate_stream(
        platform, "poisson:rate=0.05,jobs=12,work=100", "UMR", 0.2,
        seed=11, policy="partitioned:parts=2", topology="chain:relay=sf",
    )
    assert calls
    assert len(calls) == len(set(calls))
