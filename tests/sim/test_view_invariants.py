"""Master-view invariants checked at every scheduling decision.

Both scalar engines answer the idle queries of :class:`MasterView`
(``is_idle``, ``first_idle``, ``any_pending``, ``crashed_workers``)
through cheaper equivalents of their definitions over ``pending_chunks``.
This module drives the self-scheduled sources — Factoring, Weighted
Factoring, FSC, RUMR, AdaptiveRUMR — through a recording wrapper around
the real source, on star, chain (store-and-forward and cut-through) and
tree platforms, with and without crash faults, and asserts at every
decision of both engines that each shortcut equals its definition:

* ``is_idle(i) == (pending_chunks(i) == 0)``;
* ``first_idle(crashed)`` equals the lexicographic
  ``(pending_chunks, pending_work, index)`` rule at lookahead 1;
* ``any_pending() == any(pending_chunks(i))``;
* ``crashed_workers()`` equals ``crash_time <= now`` over all workers;
* the fast view's per-worker exit-time lists stay sorted, which is what
  lets it answer ``is_idle`` from the latest exit alone;
* both engines decide at the same instants.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import make_scheduler
from repro.core.base import DispatchSource, Scheduler
from repro.errors import FaultSchedule, FrozenFaults, NoError, NormalErrorModel
from repro.platform import PlatformSpec, WorkerSpec
from repro.sim.engine import simulate_des
from repro.sim.fastsim import simulate_fast
from tests.core.test_lockstep import lexicographic_pick
from tests.properties.strategies import finite, seeds, worker_specs

pytestmark = pytest.mark.property

ALGORITHMS = ("Factoring", "WeightedFactoring", "FSC", "RUMR", "AdaptiveRUMR")
TOPOLOGIES = (None, "chain:relay=sf", "chain:relay=ct", "tree:fanout=2")


class _CheckedSource(DispatchSource):
    """Checks the view, then asks the real source."""

    def __init__(self, inner: DispatchSource, crash_times, decisions: list):
        self._inner = inner
        self._crash_times = crash_times
        self._decisions = decisions

    def next_dispatch(self, view):
        check_view(view, self._crash_times)
        self._decisions.append(view.now)
        return self._inner.next_dispatch(view)


class _Checked(Scheduler):
    def __init__(self, inner: Scheduler, crash_times):
        self.inner = inner
        self.name = inner.name
        self.crash_times = crash_times
        self.decisions: list[float] = []

    def create_source(self, platform, total_work):
        return _CheckedSource(
            self.inner.create_source(platform, total_work),
            self.crash_times,
            self.decisions,
        )


def check_view(view, crash_times) -> None:
    n = view.num_workers
    now = view.now
    pending = [view.pending_chunks(i) for i in range(n)]
    works = [view.pending_work(i) for i in range(n)]
    assert [view.is_idle(i) for i in range(n)] == [p == 0 for p in pending]
    assert view.any_pending() == any(pending)

    expected = ()
    if view.faults_possible:
        expected = tuple(i for i in range(n) if crash_times[i] <= now)
    crashed = view.crashed_workers()
    assert crashed == expected

    counts = np.array([pending], dtype=np.int64)
    weights = np.array([works])
    for exclude in ((), crashed):
        mask = np.array([[i in exclude for i in range(n)]])
        want = lexicographic_pick(counts, weights, mask, [n])[0]
        assert view.first_idle(exclude) == want

    ends = getattr(view, "_ends", None)
    if ends is not None:
        for worker_ends in ends:
            assert worker_ends == sorted(worker_ends)


@st.composite
def crash_times(draw, n: int):
    """Per-worker crash instants: never, at t = 0, or mid-run (ties allowed)."""
    instant = st.one_of(
        st.just(math.inf),
        st.just(0.0),
        st.sampled_from([5.0, 20.0]),
        st.floats(min_value=0.0, max_value=60.0, **finite),
    )
    return tuple(draw(st.lists(instant, min_size=n, max_size=n)))


@st.composite
def runs(draw):
    platform = PlatformSpec(draw(st.lists(worker_specs, min_size=1, max_size=6)))
    crashes = None
    if draw(st.booleans()):
        crashes = draw(crash_times(platform.N))
    return dict(
        platform=platform,
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        work=draw(st.floats(min_value=20.0, max_value=300.0, **finite)),
        error=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(seeds()),
        crashes=crashes,
    )


def _faults(crashes, n):
    if crashes is None:
        return None
    return FrozenFaults(
        FaultSchedule(
            crash_times=crashes,
            pauses=((0.0, 0.0),) * n,
            slowdowns=((0.0, 1.0),) * n,
        )
    )


def _run_checked(engine, run):
    checked = _Checked(make_scheduler(run["algorithm"], run["error"]), run["crashes"])
    error_model = NormalErrorModel(run["error"]) if run["error"] else NoError()
    engine(
        run["platform"], run["work"], checked, error_model, seed=run["seed"],
        faults=_faults(run["crashes"], run["platform"].N), topology=run["topology"],
    )
    return checked.decisions


@given(runs())
def test_view_invariants_at_every_decision(run):
    fast = _run_checked(simulate_fast, run)
    assert fast  # at least the first decision
    assert _run_checked(simulate_des, run) == fast


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_view_invariants_crash_matrix(algorithm, topology):
    # A fixed crashy corner on every (algorithm, topology) pair: one worker
    # dead from the start, two crashing at the same mid-run instant.
    platform = PlatformSpec(
        WorkerSpec(S=1.0 + 0.5 * i, B=20.0, cLat=0.1, nLat=0.05, tLat=0.02)
        for i in range(5)
    )
    run = dict(
        platform=platform, algorithm=algorithm, topology=topology, work=200.0,
        error=0.3, seed=11, crashes=(math.inf, 0.0, 15.0, 15.0, math.inf),
    )
    for engine in (simulate_fast, simulate_des):
        assert _run_checked(engine, run)
