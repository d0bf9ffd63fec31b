"""Stream seeds derived in batch at stream start change no output.

``simulate_stream`` derives every first-attempt run seed up front (the
job seeds of seedless arrivals and the slice seeds of sliced jobs, one
``child_seeds`` call each) and hashes their comm/comp stream states into
one scoped :class:`~repro.errors.rng.StateTable`.  Re-attempt and
backoff-jitter seeds are table misses.  Each case below runs once as
shipped and once with nothing derived ahead (every seed drawn on use, one
``SeedSequence`` per stream) and must give byte-identical metrics.
"""

import pytest

from repro.errors import rng
from repro.experiments.queueing import metrics_to_json, queueing_metrics
from repro.platform import homogeneous_platform
from repro.sim import multijob, simulate_stream
from repro.workloads import JobArrival

pytestmark = pytest.mark.multijob

POLICIES = ("fcfs", "partitioned:parts=4", "interleaved:slices=4")
FAULTS = {
    "clean": (None, "drop"),
    "crash-resubmit": ("crash:p=0.5,tmax=300", "resubmit"),
    "crash-retry-jitter": ("crash:p=0.5,tmax=300", "retry:attempts=3,jitter=0.25"),
}


@pytest.fixture(scope="module")
def platform():
    return homogeneous_platform(6, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


# Seedless and seeded arrivals alternate, so both job-seed rules run.
JOBS = [
    JobArrival(job_id=i, time=15.0 * i, work=120.0, seed=None if i % 2 else 1000 + i)
    for i in range(8)
]


def run(platform, policy, fault, failure, monkeypatch, derive_ahead):
    hits = []
    lookup = rng._scoped_words

    def counting(entropy, keys):
        words = lookup(entropy, keys)
        hits.append(words is not None)
        return words

    with monkeypatch.context() as patch:
        patch.setattr(rng, "_scoped_words", counting)
        if not derive_ahead:
            patch.setattr(multijob, "_first_attempt_seeds", lambda *_: ({}, {}, []))
        stream = simulate_stream(
            platform, JOBS, "UMR", 0.2, seed=5, policy=policy, faults=fault,
            failure_policy=failure,
        )
    return stream, metrics_to_json(queueing_metrics(stream)), sum(hits)


def makespans(stream):
    return [r.makespan.hex() for rec in stream.jobs for r in rec.results]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", sorted(FAULTS))
def test_batched_seed_stream_metrics_equal_lazy_derivation(
    platform, policy, case, monkeypatch
):
    fault, failure = FAULTS[case]
    stream, batched, hits = run(platform, policy, fault, failure, monkeypatch, True)
    lazy_stream, lazy, lazy_hits = run(platform, policy, fault, failure, monkeypatch, False)
    assert batched == lazy
    assert makespans(stream) == makespans(lazy_stream)
    assert lazy_hits == 0
    grants = sum(len(r.results) for r in stream.jobs)
    slices = 4 if policy.startswith("interleaved") else 1
    if case == "clean":
        # Every grant is a first attempt: its comm and comp streams are
        # both read from the table.
        assert grants == len(JOBS) * slices
        assert hits == 2 * grants
    else:
        # Some grants are re-attempts, whose seeds miss the table.
        assert sum(r.attempts for r in stream.jobs) > len(JOBS) * slices
        assert 0 < hits < 2 * grants
