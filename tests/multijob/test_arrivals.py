"""Arrival processes: determinism, ordering, round-trips, conservation.

Hypothesis drives the generative properties — same seed → identical
trace, nonnegative inter-arrivals, exact JSONL round-trip — and the
stream-level conservation law (per-job delivered work sums to the
stream's dispatched work when no faults destroy chunks).  Unit tests pin
the spec-string grammar's accept/reject behavior.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import homogeneous_platform
from repro.sim import simulate_stream
from repro.workloads import (
    BurstyArrivals,
    JobArrival,
    PoissonArrivals,
    TraceArrivals,
    arrivals_from_jsonl,
    arrivals_to_jsonl,
    make_arrival_process,
)

pytestmark = [pytest.mark.multijob, pytest.mark.property]

finite = dict(allow_nan=False, allow_infinity=False)

poisson_processes = st.builds(
    PoissonArrivals,
    rate=st.floats(min_value=0.001, max_value=1.0, **finite),
    jobs=st.integers(min_value=1, max_value=20),
    work=st.floats(min_value=1.0, max_value=500.0, **finite),
    work_cv=st.floats(min_value=0.0, max_value=1.0, **finite),
)

bursty_processes = st.builds(
    BurstyArrivals,
    bursts=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=5),
    gap=st.floats(min_value=1.0, max_value=500.0, **finite),
    work=st.floats(min_value=1.0, max_value=500.0, **finite),
    spread=st.floats(min_value=0.0, max_value=5.0, **finite),
    work_cv=st.floats(min_value=0.0, max_value=1.0, **finite),
)

processes = st.one_of(poisson_processes, bursty_processes)

seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1))


class TestGenerativeProperties:
    @given(process=processes, seed=seeds)
    def test_same_seed_same_trace(self, process, seed):
        assert process.generate(seed) == process.generate(seed)

    @given(process=processes, seed=seeds)
    def test_trace_is_well_formed(self, process, seed):
        trace = process.generate(seed)
        ids = [a.job_id for a in trace]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        times = [a.time for a in trace]
        assert times == sorted(times), "arrivals out of time order"
        assert all(t >= 0 and math.isfinite(t) for t in times)
        assert all(a.work > 0 and math.isfinite(a.work) for a in trace)
        assert all(a.seed is not None for a in trace), (
            "generated arrivals must be self-contained (pinned job seeds)"
        )

    @given(process=poisson_processes, seed=st.integers(0, 2**32 - 1))
    def test_distinct_seeds_usually_distinct_traces(self, process, seed):
        a, b = process.generate(seed), process.generate(seed + 1)
        assert a != b

    @given(process=processes, seed=seeds)
    def test_jsonl_round_trip_is_exact(self, process, seed):
        trace = process.generate(seed)
        assert arrivals_from_jsonl(arrivals_to_jsonl(trace)) == trace

    @given(process=processes, seed=seeds)
    def test_jsonl_is_byte_deterministic(self, process, seed):
        trace = process.generate(seed)
        assert arrivals_to_jsonl(trace) == arrivals_to_jsonl(trace)


class TestConservation:
    @given(
        jobs=st.integers(min_value=1, max_value=4),
        rate=st.floats(min_value=0.005, max_value=0.1, **finite),
        error=st.floats(min_value=0.0, max_value=0.4, **finite),
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(
            ["fcfs", "partitioned:parts=2", "interleaved:slices=2"]
        ),
    )
    @settings(max_examples=20)
    def test_per_job_delivered_work_sums_to_dispatched(
        self, jobs, rate, error, seed, policy
    ):
        platform = homogeneous_platform(
            4, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1
        )
        stream = simulate_stream(
            platform,
            PoissonArrivals(rate=rate, jobs=jobs, work=120.0, work_cv=0.3),
            scheduler="RUMR",
            error=error,
            seed=seed,
            policy=policy,
        )
        # No faults: every dispatched chunk is delivered, per job and in sum.
        for rec in stream.jobs:
            assert rec.delivered_work == rec.dispatched_work
            assert rec.work_lost == 0.0
        assert sum(r.delivered_work for r in stream.jobs) == stream.dispatched_work
        # And the dispatched total covers the requested workloads.
        assert stream.dispatched_work == pytest.approx(
            stream.total_work, rel=1e-9
        )


class TestTraceArrivals:
    def test_generate_sorts_and_ignores_seed(self):
        trace = TraceArrivals(
            [
                JobArrival(1, 10.0, 50.0, seed=2),
                JobArrival(0, 5.0, 30.0, seed=1),
            ]
        )
        a, b = trace.generate(0), trace.generate(99)
        assert a == b
        assert [j.job_id for j in a] == [0, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate job_id"):
            TraceArrivals([JobArrival(0, 0.0, 1.0), JobArrival(0, 1.0, 1.0)])

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            arrivals_from_jsonl("not json\n")
        with pytest.raises(ValueError, match="unknown fields"):
            arrivals_from_jsonl('{"job_id":0,"time":0.0,"work":1.0,"wat":1}\n')
        with pytest.raises(ValueError, match="missing field"):
            arrivals_from_jsonl('{"job_id":0,"time":0.0}\n')


class TestSpecGrammar:
    def test_poisson_spec(self):
        p = make_arrival_process("poisson:rate=0.02,jobs=8,work=200")
        assert p == PoissonArrivals(rate=0.02, jobs=8, work=200.0)

    def test_bursty_spec_with_defaults(self):
        p = make_arrival_process("bursty:bursts=3,size=4,gap=300,work=150")
        assert p == BurstyArrivals(bursts=3, size=4, gap=300.0, work=150.0)

    def test_trace_spec_round_trips_through_a_file(self, tmp_path):
        trace = PoissonArrivals(rate=0.05, jobs=5, work=100.0).generate(3)
        path = tmp_path / "arrivals.jsonl"
        path.write_text(arrivals_to_jsonl(trace))
        p = make_arrival_process(f"trace:{path}")
        assert p.generate(0) == trace

    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:rate=0.02,jobs=8",          # missing work
            "poisson:rate=0.02,jobs=8,work=200,typo=1",
            "poisson:rate=0,jobs=8,work=200",    # rate must be > 0
            "poisson:rate=0.02,jobs=2.5,work=200",
            "bursty:bursts=2,size=0,gap=10,work=5",
            "trace:/nonexistent/arrivals.jsonl",
            "weibull:rate=1",
            "poisson",                           # no parameters at all
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_arrival_process(spec)

    def test_process_passes_through(self):
        p = PoissonArrivals(rate=0.1, jobs=2, work=10.0)
        assert make_arrival_process(p) is p


@pytest.mark.parametrize(
    "specs, axis",
    [
        (["poisson:rate=0.02,jobs=8,work=200", "poisson: rate = 0.05 ,jobs=8,work=200"],
         (0.02, 0.05)),
        (["poisson:rate=0.02,jobs=8,work=200", "bursty:bursts=2,size=3,gap=10,work=5"],
         (0.0, 1.0)),
        (["poisson:jobs=8,work=200", "poisson:rate=0.05,jobs=8,work=200"], (0.0, 1.0)),
        (["poisson:rate=0.02,jobs=8,work=200,", "poisson:rate=0.05"], (0.0, 1.0)),
    ],
)
def test_queueing_figure_axis_reads_poisson_rates(specs, axis):
    # The figure's x-axis reads the rate through the shared k=v parser:
    # rates when every spec is a well-formed Poisson spec, else indices.
    from repro.experiments.queueing import _arrival_axis

    assert _arrival_axis(specs) == axis
