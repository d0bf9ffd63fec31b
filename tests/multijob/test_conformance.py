"""Differential conformance: a 1-job stream IS a single run, bitwise.

The multi-job layer's contract is that it adds *no* arithmetic of its
own: each job runs through :func:`repro.sim.simulate` untouched, so a
degenerate one-job arrival stream must produce a ``SimResult`` that is
**bitwise equal** (dataclass equality over all floats and records) to
calling ``simulate()`` directly — for every registered scheduler, at
error 0 and under every fault kind, on both engines, and under every
policy's degenerate configuration.  Any drift here means the stream
layer leaked into the per-job trajectory.
"""

import pytest

from repro.core.registry import available_schedulers, make_scheduler
from repro.errors import FrozenFaults, NoError, StreamFaultSchedule, make_fault_model
from repro.errors.models import make_error_model
from repro.platform import homogeneous_platform
from repro.sim import simulate, simulate_stream
from repro.workloads import JobArrival

pytestmark = pytest.mark.multijob

WORK = 200.0
SEED = 7

FAULT_SPECS = (
    None,
    "crash:p=0.6,tmax=30",
    "pause:p=1,tmax=20,dur=10",
    "slow:p=1,tmax=20,factor=3",
    "spike:p=0.5,delay=2",
)


@pytest.fixture(scope="module")
def platform():
    return homogeneous_platform(4, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


def one_job_stream(platform, scheduler, faults=None, engine="fast", policy="fcfs",
                   error=0.0, **kwargs):
    return simulate_stream(
        platform,
        [JobArrival(job_id=0, time=0.0, work=WORK, seed=SEED)],
        scheduler=scheduler,
        error=error,
        policy=policy,
        engine=engine,
        faults=faults,
        **kwargs,
    )


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize("faults", FAULT_SPECS, ids=lambda s: s or "none")
def test_one_job_stream_bitwise_equals_simulate(platform, scheduler, faults):
    # With the stream seed equal to the job seed, the stream timeline is
    # realized from the same third spawned RNG child a single run samples
    # its schedule from, and its projection at t=0 over the whole star is
    # that schedule: a 1-job stream is exactly a single run.
    direct = simulate(
        platform, WORK, make_scheduler(scheduler, 0.0), NoError(),
        seed=SEED, faults=faults,
    )
    stream = one_job_stream(platform, scheduler, faults=faults, seed=SEED)
    assert stream.num_jobs == 1
    (rec,) = stream.jobs
    assert len(rec.results) == 1
    assert rec.results[0] == direct  # frozen-dataclass equality: bitwise
    assert rec.start == 0.0
    assert rec.finish == direct.makespan
    assert rec.work_lost == direct.work_lost


@pytest.mark.parametrize("scheduler", available_schedulers())
@pytest.mark.parametrize("engine", ("fast", "des"))
@pytest.mark.parametrize(
    "faults", [s for s in FAULT_SPECS if s is not None], ids=lambda s: s
)
def test_one_job_stream_frame_bitwise_equals_projected_simulate(
    platform, engine, faults, scheduler
):
    # The one stream timeline (realized from the *stream* seed's third
    # spawned RNG child) is projected into the job's frame; a single run
    # handed that exact frozen projection must be bitwise what the stream
    # recorded — for every scheduler and fault kind, on both engines.
    stream_seed = 11
    plane = StreamFaultSchedule.realize(
        make_fault_model(faults), platform, stream_seed
    )
    direct = simulate(
        platform, WORK, make_scheduler(scheduler, 0.0), NoError(),
        seed=SEED, engine=engine,
        faults=FrozenFaults(plane.project(range(platform.N), 0.0)),
    )
    stream = one_job_stream(
        platform, scheduler, faults=faults, engine=engine, seed=stream_seed
    )
    (rec,) = stream.jobs
    assert rec.results[0] == direct
    assert rec.work_lost == direct.work_lost


@pytest.mark.parametrize("scheduler", ("RUMR", "UMR", "Factoring", "FSC"))
def test_one_job_stream_bitwise_on_des_engine(platform, scheduler):
    direct = simulate(
        platform, WORK, make_scheduler(scheduler, 0.0), NoError(),
        seed=SEED, engine="des",
    )
    stream = one_job_stream(platform, scheduler, engine="des")
    assert stream.jobs[0].results[0] == direct


@pytest.mark.parametrize(
    "policy", ("fcfs", "partitioned:parts=1", "interleaved:slices=1")
)
def test_degenerate_policies_are_bitwise_identical(platform, policy):
    direct = simulate(
        platform, WORK, make_scheduler("RUMR", 0.0), NoError(), seed=SEED
    )
    stream = one_job_stream(platform, "RUMR", policy=policy)
    assert stream.jobs[0].results[0] == direct


def test_one_job_stream_bitwise_under_prediction_error(platform):
    # error > 0: the stream builds a fresh error model per job; a fresh
    # model on the direct path must agree draw for draw (the model state
    # is consumed inside simulate(), keyed only by the seed).
    direct = simulate(
        platform, WORK, make_scheduler("RUMR", 0.3),
        make_error_model("normal", 0.3), seed=SEED,
    )
    stream = one_job_stream(platform, "RUMR", error=0.3)
    assert stream.jobs[0].results[0] == direct


def test_multi_job_fcfs_jobs_are_each_bitwise_single_runs(platform):
    # FCFS never slices or re-platforms: every job of an n-job stream is
    # itself a plain simulate() run under its own seed.
    arrivals = [
        JobArrival(job_id=i, time=40.0 * i, work=WORK + 10 * i, seed=100 + i)
        for i in range(3)
    ]
    stream = simulate_stream(platform, arrivals, scheduler="UMR")
    for rec in stream.jobs:
        direct = simulate(
            platform, rec.job.work, make_scheduler("UMR", 0.0), NoError(),
            seed=rec.job.seed,
        )
        assert rec.results[0] == direct


def test_partitioned_job_is_bitwise_a_subset_run(platform):
    stream = simulate_stream(
        platform,
        [JobArrival(job_id=0, time=0.0, work=WORK, seed=SEED)],
        scheduler="RUMR",
        policy="partitioned:parts=2",
    )
    (rec,) = stream.jobs
    sub = platform.subset(rec.workers)
    direct = simulate(sub, WORK, make_scheduler("RUMR", 0.0), NoError(), seed=SEED)
    assert rec.results[0] == direct
