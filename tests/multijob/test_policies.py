"""Inter-job policies: composition semantics and the spec grammar."""

import dataclasses

import pytest

from repro.platform import homogeneous_platform
from repro.sim import make_stream_policy, simulate_stream
from repro.sim.multijob import (
    FCFSPolicy,
    InterleavedPolicy,
    PartitionedPolicy,
)
from repro.workloads import JobArrival

pytestmark = pytest.mark.multijob


@pytest.fixture(scope="module")
def platform():
    return homogeneous_platform(5, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


class TestSpecGrammar:
    def test_known_specs(self):
        assert make_stream_policy("fcfs") == FCFSPolicy()
        assert make_stream_policy("partitioned") == PartitionedPolicy(parts=2)
        assert make_stream_policy("partitioned:parts=3") == PartitionedPolicy(parts=3)
        assert make_stream_policy("interleaved") == InterleavedPolicy(slices=4)
        assert make_stream_policy("interleaved:slices=2") == InterleavedPolicy(slices=2)

    def test_policy_passes_through(self):
        p = InterleavedPolicy(slices=7)
        assert make_stream_policy(p) is p

    @pytest.mark.parametrize(
        "spec",
        [
            "lifo",
            "fcfs:parts=2",
            "partitioned:slices=2",
            "partitioned:parts=1.5",
            "partitioned:parts",
            "interleaved:slices=x",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_stream_policy(spec)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            PartitionedPolicy(parts=0)
        with pytest.raises(ValueError):
            InterleavedPolicy(slices=0)


class TestFCFS:
    def test_is_one_partition_of_the_whole_star(self, platform):
        policy = FCFSPolicy()
        assert isinstance(policy, PartitionedPolicy)
        assert policy.parts == 1 and policy.name == "fcfs"
        assert policy.partitions(platform) == (tuple(range(platform.N)),)

    @pytest.mark.parametrize(
        "faults", [None, "crash:p=0.9,tmax=60", "crash:p=1,tmax=5"]
    )
    @pytest.mark.parametrize(
        "failure_policy", ["drop", "retry:attempts=2,backoff=5", "resubmit"]
    )
    def test_same_stream_as_partitioned_parts_1(
        self, platform, faults, failure_policy
    ):
        # Only the policy label differs: records, attempts, failure
        # reasons and the merged event streams all match.
        fcfs, one = (
            simulate_stream(
                platform, "poisson:rate=0.03,jobs=5,work=120", scheduler="UMR",
                error=0.3, seed=2, policy=policy, faults=faults,
                failure_policy=failure_policy,
            )
            for policy in ("fcfs", "partitioned:parts=1")
        )
        assert fcfs.jobs == one.jobs

        def unlabeled(stream):
            return [
                dataclasses.replace(e, phase="") if e.phase == stream.policy else e
                for e in stream.events(include_sim=True)
            ]

        assert unlabeled(fcfs) == unlabeled(one)

    def test_jobs_never_overlap_and_keep_arrival_order(self, platform):
        arrivals = [JobArrival(i, 5.0 * i, 100.0, seed=i) for i in range(4)]
        stream = simulate_stream(platform, arrivals, scheduler="UMR")
        for prev, nxt in zip(stream.jobs, stream.jobs[1:]):
            assert nxt.start >= prev.finish
            assert nxt.start == max(nxt.job.time, prev.finish)
        assert stream.max_queue_depth() >= 2  # jobs 1..3 queue behind job 0

    def test_idle_gap_resets_the_queue(self, platform):
        arrivals = [
            JobArrival(0, 0.0, 50.0, seed=1),
            JobArrival(1, 10_000.0, 50.0, seed=2),
        ]
        stream = simulate_stream(platform, arrivals, scheduler="UMR")
        assert stream.jobs[1].start == 10_000.0
        assert stream.jobs[1].wait == 0.0
        assert stream.max_queue_depth() == 1


class TestPartitioned:
    def test_partitions_are_contiguous_balanced_and_exhaustive(self, platform):
        groups = PartitionedPolicy(parts=2).partitions(platform)
        assert groups == ((0, 1, 2), (3, 4))
        assert PartitionedPolicy(parts=5).partitions(platform) == (
            (0,), (1,), (2,), (3,), (4,),
        )

    def test_more_partitions_than_workers_rejected(self, platform):
        with pytest.raises(ValueError, match="cannot split"):
            PartitionedPolicy(parts=6).partitions(platform)

    def test_simultaneous_jobs_run_in_parallel_partitions(self, platform):
        arrivals = [JobArrival(i, 0.0, 100.0, seed=i) for i in range(2)]
        stream = simulate_stream(
            platform, arrivals, scheduler="UMR", policy="partitioned:parts=2"
        )
        a, b = stream.jobs
        assert a.workers == (0, 1, 2) and b.workers == (3, 4)
        assert a.start == b.start == 0.0  # no queueing: true sharing
        assert a.wait == b.wait == 0.0

    def test_earliest_start_wins_ties_to_lowest_index(self, platform):
        arrivals = [JobArrival(i, 0.0, 100.0, seed=i) for i in range(3)]
        stream = simulate_stream(
            platform, arrivals, scheduler="UMR", policy="partitioned:parts=2"
        )
        # Third job goes to whichever partition frees first.
        first_free = min(stream.jobs[0].finish, stream.jobs[1].finish)
        assert stream.jobs[2].start == first_free


class TestInterleaved:
    def test_slice_sizes_sum_exactly(self):
        policy = InterleavedPolicy(slices=3)
        sizes = policy.slice_sizes(100.0)
        assert len(sizes) == 3
        assert sum(sizes) == 100.0
        assert all(s > 0 for s in sizes)
        assert InterleavedPolicy(slices=1).slice_sizes(7.0) == (7.0,)

    def test_concurrent_jobs_alternate_slices(self, platform):
        arrivals = [JobArrival(i, 0.0, 100.0, seed=i) for i in range(2)]
        stream = simulate_stream(
            platform, arrivals, scheduler="UMR", policy="interleaved:slices=2"
        )
        a, b = stream.jobs
        assert len(a.results) == len(b.results) == 2
        # Round-robin: a's first slice, b's first, a's second, b's second.
        order = sorted(
            [(t, "a") for t in a.slice_starts] + [(t, "b") for t in b.slice_starts]
        )
        assert [owner for _, owner in order] == ["a", "b", "a", "b"]
        # Interleaving means neither job monopolizes the star: the
        # first-arrived job finishes *after* the other starts.
        assert b.start < a.finish

    def test_small_job_is_not_stuck_behind_a_long_one(self, platform):
        # The head-of-line-blocking case interleaving exists to soften:
        # a short job arriving just after a huge one gets its first
        # service grant far sooner than under FCFS (the trade-off is
        # per-job dilation, so response time is not the metric here).
        arrivals = [
            JobArrival(0, 0.0, 2000.0, seed=1),
            JobArrival(1, 1.0, 20.0, seed=2),
        ]
        fcfs = simulate_stream(platform, arrivals, scheduler="UMR")
        ilv = simulate_stream(
            platform, arrivals, scheduler="UMR", policy="interleaved:slices=8"
        )
        assert ilv.job_record(1).wait < fcfs.job_record(1).wait
        # And the long job is diluted, not starved: both still finish.
        assert ilv.job_record(0).delivered_work == pytest.approx(2000.0, rel=1e-9)

    def test_idle_jump_to_next_arrival(self, platform):
        arrivals = [
            JobArrival(0, 0.0, 40.0, seed=1),
            JobArrival(1, 5_000.0, 40.0, seed=2),
        ]
        stream = simulate_stream(
            platform, arrivals, scheduler="UMR", policy="interleaved:slices=2"
        )
        assert stream.jobs[1].start == 5_000.0


class TestResultAccounting:
    def test_job_record_lookup(self, platform):
        stream = simulate_stream(
            platform, [JobArrival(3, 0.0, 50.0, seed=9)], scheduler="UMR"
        )
        assert stream.job_record(3).job.job_id == 3
        with pytest.raises(KeyError):
            stream.job_record(0)

    def test_duplicate_job_ids_rejected(self, platform):
        with pytest.raises(ValueError, match="duplicate"):
            simulate_stream(
                platform,
                [JobArrival(0, 0.0, 1.0), JobArrival(0, 1.0, 1.0)],
                scheduler="UMR",
            )

    def test_stream_under_crashes_accounts_lost_work(self, platform):
        # The stream timeline's crashes land while jobs run, so chunks
        # in flight or queued on a dying worker are lost.
        stream = simulate_stream(
            platform,
            "poisson:rate=0.05,jobs=4,work=150",
            scheduler="RUMR",
            seed=5,
            policy="fcfs",
            faults="crash:p=0.5,tmax=100",
        )
        assert stream.work_lost > 0
        assert stream.dispatched_work == pytest.approx(
            stream.delivered_work + stream.work_lost
        )
        # Recovery-aware RUMR still finishes every job's full workload.
        assert stream.delivered_work == pytest.approx(stream.total_work, rel=1e-9)

    def test_stream_frame_excludes_dead_workers_and_conserves_work(self, platform):
        # The one stream timeline's crashes persist, the
        # health tracker excludes the dead, and work stays conserved.
        stream = simulate_stream(
            platform,
            "poisson:rate=0.05,jobs=4,work=150",
            scheduler="RUMR",
            seed=5,
            policy="fcfs",
            faults="crash:p=0.8,tmax=20",
        )
        assert stream.workers_excluded  # tmax=20 precedes most arrivals
        assert stream.dispatched_work == pytest.approx(
            stream.delivered_work + stream.work_lost
        )
        completed = sum(rec.job.work for rec in stream.completed_jobs)
        delivered_completed = sum(rec.delivered_work for rec in stream.completed_jobs)
        assert delivered_completed == pytest.approx(completed, rel=1e-9)
        dead = dict(stream.excluded)
        for rec in stream.jobs:
            for i, start in enumerate(rec.slice_starts):
                for w in rec.workers_for_slice(i):
                    assert dead.get(w, float("inf")) > start


class TestFaultFreeRecords:
    """Fault-free streams run the same grant loops as faulty ones."""

    @pytest.mark.parametrize(
        "policy", ["fcfs", "partitioned:parts=4", "interleaved:slices=4"]
    )
    def test_attempts_and_slice_workers(self, platform, policy):
        stream = simulate_stream(
            platform, "poisson:rate=0.05,jobs=6,work=150", scheduler="RUMR",
            error=0.2, seed=11, policy=policy,
        )
        for rec in stream.jobs:
            assert not rec.failed
            assert rec.attempts == len(rec.results)
            for i in range(len(rec.results)):
                assert rec.workers_for_slice(i) == rec.workers
