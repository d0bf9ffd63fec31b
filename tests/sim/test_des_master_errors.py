"""The DES master's error paths, on every shape the master loop branches on.

``simulate`` runs the plain star on the fast engine by default, so these
call :func:`repro.sim.engine.simulate_des` directly: the plain star, a
ported star (the master holds a port when it decides), a ``sharedbw``
link (the master pays ``nLat`` and registers a transfer) and a
store-and-forward chain (relay links).  Each scheduler contract violation
must raise its typed error from the master, not hang or end the run.
"""

import pytest

from repro.core.base import WAIT, DeadlockError, Dispatch, DispatchSource, Scheduler
from repro.errors import NoError
from repro.platform import homogeneous_platform
from repro.sim.engine import simulate_des

TOPOLOGIES = [None, "star:ports=2", "sharedbw:cap=10", "chain:relay=sf"]


def _scheduler(source_factory) -> Scheduler:
    class Bad(Scheduler):
        name = "bad"

        def create_source(self, platform, total_work):
            return source_factory()

    return Bad()


class _WaitAfterDrain(DispatchSource):
    """One chunk, then WAIT forever: the second WAIT has nothing to wait on."""

    def __init__(self):
        self.sent = False

    def next_dispatch(self, view):
        if not self.sent:
            self.sent = True
            return Dispatch(worker=0, size=1.0)
        return WAIT


class _WrongType(DispatchSource):
    def next_dispatch(self, view):
        return "send something somewhere"


class _OutOfRange(DispatchSource):
    def next_dispatch(self, view):
        return Dispatch(worker=4, size=1.0)


def _run(source_factory, topology):
    platform = homogeneous_platform(4, S=1.0, B=8.0, nLat=0.1)
    return simulate_des(
        platform, 10.0, _scheduler(source_factory), NoError(), seed=0, topology=topology
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestDesMasterErrors:
    def test_wait_with_nothing_outstanding_deadlocks(self, topology):
        with pytest.raises(DeadlockError, match="WAIT with no outstanding chunk"):
            _run(_WaitAfterDrain, topology)

    def test_wrong_return_type_rejected(self, topology):
        with pytest.raises(TypeError, match="expected Dispatch"):
            _run(_WrongType, topology)

    def test_out_of_range_worker_rejected(self, topology):
        with pytest.raises(ValueError, match="outside the platform"):
            _run(_OutOfRange, topology)
