"""The stream-level fault plane: persistence, health, failure policies.

The acceptance core of the fault plane: a worker that crashes
permanently during job ``k`` dispatches **zero** chunks to any job
``j > k`` — the health tracker excludes it at every later admission.
Around that: the
:class:`~repro.errors.StreamFaultSchedule` projection arithmetic, the
three :class:`~repro.sim.multijob.JobFailurePolicy` flavors, the
stream-level event kinds, the guards, and the ``SweepStats`` /
``QueueingMetrics`` health surfaces.
"""

import dataclasses
import math

import pytest

from repro.errors import CrashFaults, FrozenFaults, StreamFaultSchedule, make_fault_model
from repro.errors.faults import FaultSchedule
from repro.experiments.queueing import (
    StreamHealthStats,
    metrics_from_json,
    metrics_to_json,
    queueing_metrics,
    run_queueing_sweep,
)
from repro.obs import SweepStats
from repro.platform import homogeneous_platform
from repro.sim import simulate_stream
from repro.sim.multijob import (
    DropFailurePolicy,
    PlatformHealth,
    ResubmitFailurePolicy,
    RetryFailurePolicy,
    make_failure_policy,
)
from repro.workloads import JobArrival

pytestmark = [pytest.mark.multijob, pytest.mark.stream_faults]


@pytest.fixture(scope="module")
def platform():
    return homogeneous_platform(4, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


def jobs_at(*times, work=200.0):
    return [JobArrival(job_id=i, time=t, work=work) for i, t in enumerate(times)]


def global_dispatches(stream):
    """(job_id, global_worker, absolute_send_start) for every record."""
    out = []
    for rec in stream.jobs:
        for i, result in enumerate(rec.results):
            workers = rec.workers_for_slice(i)
            offset = rec.slice_starts[i]
            for r in result.records:
                out.append((rec.job.job_id, workers[r.worker], offset + r.send_start))
    return out


ALL_DIE = CrashFaults(prob=1.0, tmax=30.0, spare_one=False)


# -- the acceptance core ------------------------------------------------------

class TestCrashPersistence:
    @pytest.mark.parametrize(
        "policy", ("fcfs", "partitioned:parts=2", "interleaved:slices=3")
    )
    def test_worker_crashing_in_job_k_gets_zero_chunks_in_later_jobs(
        self, platform, policy
    ):
        # Worker 2 dies at t=5, during job 0; jobs 1..3 must never
        # dispatch to it, under every stream policy.
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0, 180.0), seed=9, policy=policy,
            faults="crash:worker=2,at=5",
        )
        assert 2 in stream.workers_excluded
        for job_id, worker, send_start in global_dispatches(stream):
            if job_id > 0:
                assert worker != 2, (
                    f"dead worker 2 was granted a chunk of job {job_id} "
                    f"at t={send_start}"
                )

    def test_exclusion_is_recorded_at_the_crash_instant(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0), seed=9, faults="crash:worker=1,at=7.5",
        )
        assert stream.excluded == ((1, 7.5),)
        (event,) = [e for e in stream.events() if e.kind == "worker_excluded"]
        assert event.time == 7.5 and event.worker == 1 and event.detail == "crash"

    def test_crash_between_jobs_is_caught_at_admission(self, platform):
        # The crash falls in the idle gap between job 0 and job 1 — no
        # loss ledger ever shows it, only the admission check can.
        stream = simulate_stream(
            platform, jobs_at(0.0, 100.0), seed=9, faults="crash:worker=0,at=90",
        )
        assert stream.workers_excluded == (0,)
        for job_id, worker, _ in global_dispatches(stream):
            if job_id == 1:
                assert worker != 0
        assert stream.jobs_failed == 0  # three survivors carry job 1



# -- projection arithmetic ----------------------------------------------------

class TestProjection:
    def make_plane(self):
        schedule = FaultSchedule(
            crash_times=(50.0, math.inf, 10.0),
            pauses=((5.0, 10.0), (0.0, 0.0), (20.0, 4.0)),
            slowdowns=((30.0, 2.0), (0.0, 1.0), (0.0, 1.0)),
            spike_prob=0.25,
            spike_delay=1.5,
        )
        return StreamFaultSchedule(schedule=schedule)

    def test_offsets_shift_and_clamp(self):
        view = self.make_plane().project((0, 1, 2), 12.0)
        assert view.crash_times == (38.0, math.inf, 0.0)  # already dead -> 0
        assert view.pauses[0] == (0.0, 3.0)  # [5,15) -> remaining [0,3)
        assert view.pauses[2] == (8.0, 4.0)
        assert view.slowdowns[0] == (18.0, 2.0)
        assert view.spike_prob == 0.25 and view.spike_delay == 1.5

    def test_elapsed_pause_projects_to_no_pause(self):
        view = self.make_plane().project((0,), 20.0)
        assert view.pauses[0] == (0.0, 0.0)

    def test_subset_remaps_worker_indices(self):
        view = self.make_plane().project((2, 0), 0.0)
        assert view.crash_times == (10.0, 50.0)
        assert view.pauses == ((20.0, 4.0), (5.0, 10.0))

    def test_projection_rejects_bad_inputs(self):
        plane = self.make_plane()
        with pytest.raises(ValueError, match="offset"):
            plane.project((0,), -1.0)
        with pytest.raises(ValueError, match="outside"):
            plane.project((3,), 0.0)

    def test_realize_matches_engine_fault_stream(self, platform):
        # The stream timeline must come from the same third-spawned RNG
        # child the single-run engines use, so schedules are comparable.
        from repro.errors.faults import fault_stream

        model = make_fault_model("crash:p=0.6,tmax=30")
        plane = StreamFaultSchedule.realize(model, platform, 21)
        direct = model.sample(platform, fault_stream(21))
        assert plane.schedule == direct

    def test_frozen_faults_replays_and_validates(self, platform):
        plane = StreamFaultSchedule.realize(
            make_fault_model("crash:p=1,tmax=30"), platform, 7
        )
        frozen = FrozenFaults(plane.schedule)
        assert frozen.sample(platform, None) is plane.schedule
        small = homogeneous_platform(
            2, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1
        )
        with pytest.raises(ValueError, match="worker"):
            frozen.sample(small, None)


# -- platform health ----------------------------------------------------------

class TestPlatformHealth:
    def test_live_filters_and_marks_once(self):
        plane = StreamFaultSchedule(
            schedule=FaultSchedule(
                crash_times=(5.0, math.inf, 8.0),
                pauses=((0.0, 0.0),) * 3,
                slowdowns=((0.0, 1.0),) * 3,
            )
        )
        health = PlatformHealth(3, plane)
        assert health.live((0, 1, 2), 0.0) == (0, 1, 2)
        assert health.live((0, 1, 2), 4.9) == (0, 1, 2)
        # A crash at exactly `now` counts as dead: any new grant is lost.
        assert health.live((0, 1, 2), 5.0) == (1, 2)
        assert health.live((0, 1, 2), 6.0) == (1, 2)
        assert health.live((0, 1, 2), 9.0) == (1,)
        assert health.dead == {0, 2}
        assert health.excluded_pairs() == ((0, 5.0), (2, 8.0))
        assert len(health.events) == 2  # no duplicates on re-checks
        assert health.death_time(1) == math.inf

    def test_degraded_workers_stay_admissible(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0), seed=9, faults="slow:p=1,tmax=10,factor=3",
        )
        assert stream.workers_excluded == ()
        assert stream.jobs_failed == 0


# -- failure policies ---------------------------------------------------------

class TestFailurePolicies:
    def test_drop_fails_orphaned_jobs(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0), seed=7, faults=ALL_DIE,
        )
        assert stream.failure_policy == "drop"
        assert stream.jobs_failed == 3
        reasons = {rec.job.job_id: rec.failure for rec in stream.jobs}
        assert reasons[0] == "delivery-shortfall"  # caught mid-crash
        assert reasons[1] == reasons[2] == "no-live-workers"
        kinds = [e.kind for e in stream.events()]
        assert kinds.count("job_failed") == 3
        assert "job_done" not in kinds

    def test_failed_never_served_job_has_no_job_start(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0), seed=7, faults=ALL_DIE,
        )
        starts = [e.chunk for e in stream.events() if e.kind == "job_start"]
        assert starts == [0]  # job 1 never got a grant

    def test_retry_consumes_attempts_then_fails(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0), seed=7, faults=ALL_DIE,
            failure_policy="retry:attempts=3,backoff=2,jitter=0",
        )
        assert all(rec.attempts == 3 for rec in stream.jobs)
        assert all(rec.failed for rec in stream.jobs)

    def test_retry_backoff_advances_the_failure_clock(self, platform):
        quick = simulate_stream(
            platform, jobs_at(60.0), seed=7, faults=ALL_DIE,
            failure_policy="retry:attempts=2,backoff=1,jitter=0",
        )
        slow = simulate_stream(
            platform, jobs_at(60.0), seed=7, faults=ALL_DIE,
            failure_policy="retry:attempts=2,backoff=50,jitter=0",
        )
        assert slow.jobs[0].finish == quick.jobs[0].finish + 49.0

    def test_resubmit_regrants_remainder_to_survivors(self, platform):
        # Workers die mid-job-0; resubmission re-runs only what was not
        # delivered, on whoever is left.
        stream = simulate_stream(
            platform, jobs_at(0.0), seed=7, faults=ALL_DIE,
            failure_policy="resubmit:attempts=6",
        )
        (rec,) = stream.jobs
        assert rec.resubmissions >= 1
        resub = [e for e in stream.events() if e.kind == "job_resubmitted"]
        assert len(resub) == rec.resubmissions
        assert all(e.size < rec.job.work for e in resub)

    def test_spared_survivor_absorbs_everything_without_failures(self, platform):
        # The default crash model spares one worker: with persistence the
        # stream degrades to a 1-worker star but every job completes.
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0), seed=7,
            faults="crash:p=1,tmax=30",
        )
        assert stream.jobs_failed == 0
        assert len(stream.workers_excluded) == platform.N - 1
        delivered = sum(rec.delivered_work for rec in stream.completed_jobs)
        assert delivered == pytest.approx(stream.total_work, rel=1e-9)

    @pytest.mark.parametrize(
        "policy", ("partitioned:parts=2", "interleaved:slices=3")
    )
    def test_subset_policies_fail_rather_than_deadlock(self, platform, policy):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0), seed=7, policy=policy,
            faults=ALL_DIE, failure_policy="resubmit",
        )
        assert stream.jobs_failed + len(stream.completed_jobs) == 3
        assert stream.horizon < 1e6  # terminated, no idle-spin

    def test_partitioned_reroutes_around_a_dead_partition(self, platform):
        # Single-worker partition {0} dies in the idle gap after job 0
        # finishes on it; job 1 must be admitted to a surviving
        # partition instead of deadlocking on the dead-but-free one.
        stream = simulate_stream(
            platform, jobs_at(0.0, 200.0, work=50.0), seed=7,
            policy="partitioned:parts=4", faults="crash:worker=0,at=150",
        )
        assert stream.jobs_failed == 0
        assert stream.workers_excluded == (0,)
        for job_id, worker, _ in global_dispatches(stream):
            if job_id == 1:
                assert worker != 0


# -- spec parsing and guards --------------------------------------------------

class TestSpecsAndGuards:
    def test_make_failure_policy_parses_all_forms(self):
        assert isinstance(make_failure_policy("drop"), DropFailurePolicy)
        retry = make_failure_policy("retry:attempts=5,backoff=2,mult=3,jitter=0")
        assert isinstance(retry, RetryFailurePolicy)
        assert retry.max_attempts == 5
        assert retry.backoff(2) == 6.0  # 2 * 3**1, no jitter
        resub = make_failure_policy("resubmit:attempts=2")
        assert isinstance(resub, ResubmitFailurePolicy)
        assert resub.max_attempts == 2 and resub.resubmits
        passthrough = DropFailurePolicy()
        assert make_failure_policy(passthrough) is passthrough

    @pytest.mark.parametrize(
        "spec", ("panic", "retry:attempts=0", "retry:lives=3", "drop:now=1",
                 "retry:attempts=1.5")
    )
    def test_make_failure_policy_rejects(self, spec):
        with pytest.raises(ValueError):
            make_failure_policy(spec)

    def test_retry_jitter_is_deterministic_in_the_seed(self):
        retry = RetryFailurePolicy(jitter_fraction=0.25)
        assert retry.backoff(1, seed=5) == retry.backoff(1, seed=5)
        assert retry.backoff(1, seed=5) != retry.backoff(1, seed=6)

    def test_stream_rejects_faults_on_sharedbw(self, platform):
        with pytest.raises(ValueError, match="sharedbw"):
            simulate_stream(
                platform, jobs_at(0.0), seed=1, faults="crash:p=0.5,tmax=20",
                topology="sharedbw:cap=30",
            )

    def test_sharedbw_without_faults_is_allowed(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0), seed=1, topology="sharedbw:cap=30",
            engine="des",
        )
        assert stream.jobs[0].results[0].topology.startswith("sharedbw")


# -- metrics and stats surfaces -----------------------------------------------

class TestHealthMetrics:
    def test_fault_free_metrics_have_no_health_block(self, platform):
        metrics = queueing_metrics(simulate_stream(platform, jobs_at(0.0), seed=3))
        assert metrics.health is None
        assert '"health"' not in metrics_to_json(metrics)
        assert metrics_from_json(metrics_to_json(metrics)) == metrics

    def test_faulty_metrics_carry_health_and_round_trip(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0), seed=7, faults=ALL_DIE,
        )
        metrics = queueing_metrics(stream)
        h = metrics.health
        assert isinstance(h, StreamHealthStats)
        assert h.jobs_failed == 3
        assert h.workers_excluded == platform.N
        assert h.goodput == 0.0  # nothing completed
        assert h.live_capacity < platform.N * metrics.horizon
        assert metrics_from_json(metrics_to_json(metrics)) == metrics

    def test_live_utilization_uses_degraded_capacity(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0, 120.0), seed=7, faults="crash:p=1,tmax=30",
        )
        metrics = queueing_metrics(stream)
        assert metrics.health.live_utilization > metrics.utilization

    def test_per_job_statistics_cover_completed_jobs_only(self, platform):
        stream = simulate_stream(
            platform, jobs_at(0.0, 60.0), seed=7, faults=ALL_DIE,
        )
        metrics = queueing_metrics(stream)
        assert metrics.num_jobs == 2
        assert metrics.throughput == 0.0
        assert metrics.mean_response == 0.0

    def test_sweep_stats_count_stream_and_summary(self, platform):
        stats = SweepStats()
        run_queueing_sweep(
            platform, ["poisson:rate=0.02,jobs=4,work=150"], policies=("fcfs",),
            seed=7, faults=ALL_DIE, stats=stats,
        )
        assert stats.jobs_failed > 0
        assert stats.workers_excluded == platform.N
        summary = stats.summary()
        assert "stream health:" in summary
        assert f"{stats.jobs_failed} job(s) failed" in summary
        snapshot = stats.as_dict()
        assert {"jobs_failed", "jobs_resubmitted", "workers_excluded"} <= set(snapshot)

    def test_fault_free_sweep_stats_stay_silent(self, platform):
        stats = SweepStats()
        run_queueing_sweep(
            platform, ["poisson:rate=0.02,jobs=3,work=150"], policies=("fcfs",),
            seed=7, stats=stats,
        )
        assert stats.jobs_failed == 0
        assert "stream health" not in stats.summary()
