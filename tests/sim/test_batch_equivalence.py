"""Batch engines against the scalar engine, bitwise, at every error.

Every engine consumes one perturbation sequence, defined by
:mod:`repro.errors.models`: raw normals filtered by the truncation
floor, one factor per transfer and per computation (zero-cost ones
included), and ``predicted · (1/X)`` in divide mode.  So a batched sweep
equals a scalar sweep bit for bit, at errors where resampling fires
often, in both modes, with and without faults.
"""

import numpy as np
import pytest

from repro.core.registry import available_schedulers, make_scheduler
from repro.core.rumr import RUMR
from repro.errors import NormalErrorModel
from repro.errors.faults import make_fault_model
from repro.experiments.config import smoke_grid
from repro.experiments.runner import run_sweep
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim.fastsim import simulate_fast
from tests.cells import dynamic_cell, static_cell

W = 1000.0
CRASH = "crash:p=0.5,tmax=100"


def scalar_makespans(platform, name, error, seeds, mode="multiply", faults=None):
    return np.array(
        [
            simulate_fast(
                platform, W, make_scheduler(name, error),
                NormalErrorModel(error, mode=mode), seed=s,
                collect_records=False, faults=faults,
            ).makespan
            for s in seeds
        ]
    )


def batch_makespans(platform, name, error, seeds, mode="multiply", faults=None):
    scheduler = make_scheduler(name, error)
    if scheduler.is_static:
        plan = scheduler.static_plan(platform, W)
        return static_cell(platform, plan, error, seeds, mode=mode, faults=faults)
    return dynamic_cell(platform, scheduler, W, error, seeds, mode=mode, faults=faults)


@pytest.mark.parametrize("mode", ["multiply", "divide"])
@pytest.mark.parametrize("fault", ["none", CRASH])
def test_sweep_bitwise_at_high_error(mode, fault):
    # Errors 0.3 and 0.5 resample often (about 2 % of raw draws at 0.5),
    # which used to shift the batch streams against the scalar ones.
    grid = smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.4, 1.8), cLats=(0.2,), nLats=(0.1,),
        errors=(0.3, 0.5), repetitions=3, error_mode=mode, fault=fault,
    )
    algos = tuple(available_schedulers())
    batched = run_sweep(grid, algorithms=algos)
    scalar = run_sweep(grid, algorithms=algos, batch_static=False)
    for algo in algos:
        assert np.array_equal(batched.makespans[algo], scalar.makespans[algo]), algo


@pytest.fixture(scope="module")
def mixed_zero_cost_platform():
    # Alternate workers have free transfers (nLat = 0, B = inf): their
    # predicted link time is exactly 0.0, which still takes a comm draw.
    free = WorkerSpec(S=1.0, B=np.inf, cLat=0.2, nLat=0.0)
    paid = WorkerSpec(S=1.0, B=9.0, cLat=0.2, nLat=0.1)
    return PlatformSpec(workers=(free, paid) * 3)


@pytest.mark.parametrize("mode", ["multiply", "divide"])
@pytest.mark.parametrize("name", available_schedulers())
def test_zero_cost_transfers_bitwise(mixed_zero_cost_platform, name, mode):
    seeds = tuple(range(30))
    scalar = scalar_makespans(mixed_zero_cost_platform, name, 0.3, seeds, mode)
    batch = batch_makespans(mixed_zero_cost_platform, name, 0.3, seeds, mode)
    assert np.array_equal(scalar, batch)


def test_batched_fault_rumr_crash_at_phase_boundary():
    # The crash is first observed at the decision right after RUMR's last
    # phase-1 dispatch.  The scalar source has not advanced its round
    # cursor yet, so it takes the mid-phase-1 recovery (survivor chunk
    # floor); the lockstep kernel must do the same.
    platform = homogeneous_platform(10, S=1.0, bandwidth_factor=1.8, cLat=0.2, nLat=0.2)
    seeds = (5222106882434715098,)
    faults = make_fault_model(CRASH)
    for name in ("RUMR", "RUMR-plain", "RUMR_50", "RUMR_90"):
        scalar = scalar_makespans(platform, name, 0.1, seeds, faults=faults)
        batch = batch_makespans(platform, name, 0.1, seeds, faults=faults)
        assert np.array_equal(scalar, batch), name
    assert batch_makespans(platform, "RUMR", 0.1, seeds, faults=faults)[0] == (
        pytest.approx(122.6091, abs=1e-4)
    )


WEIGHTED_TAIL_FAULTS = (
    None,
    "crash:p=0.5,tmax=100",
    "slow:p=0.6,tmax=120,factor=2.5",
    "spike:p=0.25,delay=4",
)


@pytest.mark.parametrize("fault", WEIGHTED_TAIL_FAULTS, ids=lambda s: s or "none")
@pytest.mark.parametrize("error", [0.0, 0.1, 0.3, 0.6])
def test_weighted_rumr_tail_bitwise(error, fault):
    # RUMR(phase2_weighted=True) is not a registry name, so the sweep
    # gates never run its speed-weighted phase 2.  Crash rows of this
    # variant defer to the scalar engine; every other row runs the
    # embedded weighted-factoring kernel.
    platforms = (
        PlatformSpec(workers=tuple(
            WorkerSpec(S=s, B=b, cLat=0.1, nLat=0.05)
            for s, b in ((1.0, 12.0), (2.0, 15.0), (0.5, 9.0), (1.5, 20.0))
        )),
        PlatformSpec(workers=tuple(
            WorkerSpec(S=s, B=b, cLat=c, nLat=n)
            for s, b, c, n in (
                (3.0, 40.0, 0.2, 0.1), (1.0, 25.0, 0.3, 0.05),
                (0.8, 18.0, 0.1, 0.2), (2.2, 30.0, 0.25, 0.1),
                (1.2, 22.0, 0.15, 0.15),
            )
        )),
    )
    seeds = tuple(range(20))
    faults = None if fault is None else make_fault_model(fault)
    scheduler = RUMR(known_error=error, phase2_weighted=True)
    for platform in platforms:
        scalar = np.array([
            simulate_fast(
                platform, W, scheduler, NormalErrorModel(error), seed=s,
                collect_records=False, faults=faults,
            ).makespan
            for s in seeds
        ])
        batch = dynamic_cell(platform, scheduler, W, error, seeds, faults=faults)
        assert np.array_equal(scalar, batch)
