"""The scalar engines' cheap objects: records, actions and fault streams.

Both scalar engines keep raw timeline rows while they run and hand them
to the :class:`~repro.sim.result.SimResult`, which builds its
:class:`DispatchRecord` objects on first read (:func:`build_records`)
and answers its numeric members from the rows.  Sources return
:class:`Dispatch` objects built by a cheap constructor, and the fault
stream is derived only when something draws from it.  These tests pin
that the cheap objects are indistinguishable from the dataclasses' own,
that no record exists until someone reads them, and that skipping the
fault stream changes no draw.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest

from repro.core import RUMR, Factoring
from repro.core.base import Dispatch
from repro.core.chunks import DispatchRecord, build_records
from repro.errors import NormalErrorModel, faults
from repro.errors.faults import CrashFaults, FaultModel, FaultSchedule, FrozenFaults
from repro.platform import homogeneous_platform
from repro.sim import simulate
from repro.sim.multijob import simulate_stream
from repro.workloads.arrivals import make_arrival_process

ROWS = [
    (1, 2.5, 0.0, 1.0, 1.5, 1.5, 4.0, "rumr-phase1", False, -1.0),
    (0, 3.0, 1.0, 2.25, 2.75, 2.75, 6.0, "rumr-phase2", True, 3.5),
    (1, 0.5, 2.25, 2.5, 3.0, 4.0, 4.5, "", False, -1.0),
]


def _kwarg_record(index, row):
    names = [f.name for f in dataclasses.fields(DispatchRecord)][1:]
    return DispatchRecord(index=index, **dict(zip(names, row, strict=True)))


def _schedule(n, spike_prob=0.0, spike_delay=0.0):
    return FaultSchedule(
        crash_times=(5.0,) + (math.inf,) * (n - 1),
        pauses=((0.0, 0.0),) * n,
        slowdowns=((0.0, 1.0),) * n,
        spike_prob=spike_prob,
        spike_delay=spike_delay,
    )


@dataclasses.dataclass(frozen=True, repr=False)
class _EagerFrozen(FaultModel):
    """A frozen schedule behind a model that claims to draw when sampling.

    The engines then derive the fault stream before sampling, as they
    did for every model before the stream became lazy: the reference
    the lazy derivation must reproduce.
    """

    schedule: FaultSchedule

    def sample(self, platform, rng):
        assert rng is not None
        return self.schedule


@pytest.fixture
def counted_fault_streams(monkeypatch):
    """Seeds of every child-2 stream derived during the test."""
    seeds = []
    derive = faults.fault_stream

    def counting(seed):
        seeds.append(seed)
        return derive(seed)

    monkeypatch.setattr(faults, "fault_stream", counting)
    return seeds


def test_scalar_objects_built_records_equal_and_hash_like_kwarg_records():
    built = build_records(ROWS)
    assert build_records([]) == ()
    for index, (record, row) in enumerate(zip(built, ROWS, strict=True)):
        ref = _kwarg_record(index, row)
        assert type(record) is DispatchRecord
        assert record == ref
        assert hash(record) == hash(ref)
        assert repr(record) == repr(ref)
        assert record.comp_time == ref.comp_time and record.link_time == ref.link_time
    assert len({*built, *(_kwarg_record(i, r) for i, r in enumerate(ROWS))}) == len(ROWS)


@pytest.mark.parametrize("engine", ["fast", "des"])
def test_scalar_objects_engine_records_equal_kwarg_records(paper_platform, engine):
    result = simulate(
        paper_platform, 400.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
        seed=11, engine=engine, faults="crash:p=0.3,tmax=60",
    )
    assert result.records
    for index, record in enumerate(result.records):
        ref = DispatchRecord(**dataclasses.asdict(record))
        assert record.index == index
        assert record == ref and hash(record) == hash(ref)


def test_scalar_objects_dispatch_equal_and_hash_like_kwarg_dispatch():
    fast = Dispatch(3, 2.5, "umr-round0")
    ref = Dispatch(worker=3, size=2.5, phase="umr-round0")
    assert fast == ref and hash(fast) == hash(ref)
    assert Dispatch(1, 4.0) == Dispatch(worker=1, size=4.0, phase="")
    assert Dispatch(1, 4.0) != Dispatch(1, 4.0, "x")
    assert repr(fast) == "Dispatch(worker=3, size=2.5, phase='umr-round0')"
    assert [f.name for f in dataclasses.fields(Dispatch)] == ["worker", "size", "phase"]
    assert Dispatch.__slots__ == ("worker", "size", "phase")


@pytest.mark.parametrize(
    "obj",
    [Dispatch(2, 1.5, "p"), build_records(ROWS)[1]],
    ids=["dispatch", "record"],
)
def test_scalar_objects_frozen_and_dataclass_protocols(obj):
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.size = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.worker = 0
    replaced = dataclasses.replace(obj, size=7.0)
    assert type(replaced) is type(obj)
    assert replaced.size == 7.0 and replaced.worker == obj.worker
    as_dict = dataclasses.asdict(obj)
    assert type(obj)(**as_dict) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("size", [0.0, -1.0])
def test_scalar_objects_dispatch_size_validation(size):
    with pytest.raises(ValueError, match=f"dispatch size must be > 0, got {size}"):
        Dispatch(0, size)
    with pytest.raises(ValueError, match=f"dispatch size must be > 0, got {size}"):
        Dispatch(worker=0, size=size, phase="x")
    with pytest.raises(ValueError):
        dataclasses.replace(Dispatch(0, 1.0), size=size)


@pytest.mark.parametrize("engine", ["fast", "des"])
def test_scalar_objects_spike_free_frozen_run_derives_no_fault_stream(
    small_platform, counted_fault_streams, engine
):
    frozen = FrozenFaults(_schedule(small_platform.N))
    result = simulate(
        small_platform, 60.0, Factoring(), NormalErrorModel(0.2),
        seed=5, engine=engine, faults=frozen,
    )
    assert result.work_lost > 0.0
    assert counted_fault_streams == []
    # A sampling model still derives its stream, once.
    simulate(
        small_platform, 60.0, Factoring(), NormalErrorModel(0.2),
        seed=5, engine=engine, faults=CrashFaults(prob=0.5, tmax=20.0),
    )
    assert counted_fault_streams == [5]


@pytest.mark.parametrize("engine", ["fast", "des"])
def test_scalar_objects_spiky_frozen_run_draws_fault_stream_as_before(
    small_platform, counted_fault_streams, engine
):
    schedule = _schedule(small_platform.N, spike_prob=0.4, spike_delay=0.7)
    args = (small_platform, 60.0, RUMR(known_error=0.2), NormalErrorModel(0.2))
    lazy = simulate(*args, seed=9, engine=engine, faults=FrozenFaults(schedule))
    assert counted_fault_streams == [9]
    eager = simulate(*args, seed=9, engine=engine, faults=_EagerFrozen(schedule))
    assert counted_fault_streams == [9, 9]
    assert lazy.records == eager.records
    assert lazy.makespan == eager.makespan
    # The spikes were drawn: some link time exceeds the spike delay.
    assert any(r.link_time >= 0.7 for r in lazy.records)


def test_scalar_objects_seedsequence_seed_derives_fault_child_last(small_platform):
    # A SeedSequence seed spawns the error streams first and the fault
    # stream after them, so a fresh SeedSequence(s) runs exactly like s.
    args = (small_platform, 60.0, Factoring(), NormalErrorModel(0.2))
    spiky = FrozenFaults(_schedule(small_platform.N, spike_prob=0.5, spike_delay=0.3))
    for model in (None, spiky, CrashFaults(prob=0.5, tmax=20.0)):
        by_int = simulate(*args, seed=21, faults=model)
        by_sequence = simulate(*args, seed=np.random.SeedSequence(21), faults=model)
        assert by_sequence.records == by_int.records


def _live_records() -> int:
    """How many :class:`DispatchRecord` objects are alive right now."""
    gc.collect()
    return sum(type(obj) is DispatchRecord for obj in gc.get_objects())


def _assert_records_follow_rows(result):
    assert len(result.records) == len(result.rows) == result.num_chunks
    for i, record in enumerate(result.records):
        assert record == DispatchRecord(i, *result.rows[i])


@pytest.mark.parametrize("faults_spec", [None, "crash:p=0.3,tmax=60"], ids=["clean", "crash"])
@pytest.mark.parametrize("engine", ["fast", "des"])
def test_scalar_objects_records_on_demand_simulate(paper_platform, engine, faults_spec):
    before = _live_records()
    result = simulate(
        paper_platform, 400.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
        seed=11, engine=engine, faults=faults_spec,
    )
    # Every numeric member answers from the rows.
    assert result.dispatched_work > 0.0 and result.num_chunks > 0
    result.utilization()
    result.phase_work()
    assert _live_records() == before
    assert "records" not in result.__dict__
    _assert_records_follow_rows(result)
    assert _live_records() == before + result.num_chunks


@pytest.mark.parametrize("faults_spec", [None, "crash:p=0.5,tmax=150"], ids=["clean", "crash"])
@pytest.mark.parametrize(
    "policy", ["fcfs", "partitioned:parts=2", "interleaved:slices=3"]
)
def test_scalar_objects_records_on_demand_stream(policy, faults_spec):
    from repro.experiments.queueing import queueing_metrics

    platform = homogeneous_platform(8, S=1.0, bandwidth_factor=1.6, cLat=0.1, nLat=0.1)
    jobs = make_arrival_process("poisson:rate=0.05,jobs=6,work=200").generate(3)
    before = _live_records()
    stream = simulate_stream(
        platform, jobs, "RUMR", 0.2, seed=3, policy=policy, faults=faults_spec,
        failure_policy="resubmit",
    )
    metrics = queueing_metrics(stream)
    assert (metrics.work_lost > 0.0) == (faults_spec is not None)
    assert _live_records() == before
    results = [result for rec in stream.jobs for result in rec.results]
    assert all("records" not in result.__dict__ for result in results)
    for result in results:
        _assert_records_follow_rows(result)
    assert _live_records() == before + sum(r.num_chunks for r in results)


@pytest.mark.parametrize(
    "faults_spec", [None, "crash:p=0.3,tmax=60", "spike:p=0.3,delay=2"],
    ids=["clean", "crash", "spike"],
)
@pytest.mark.parametrize("topology", ["star", "chain:relay=sf", "star:out=0.3"])
@pytest.mark.parametrize("engine", ["fast", "des"])
def test_scalar_objects_records_on_demand_members_match_record_formulas(
    paper_platform, engine, topology, faults_spec
):
    result = simulate(
        paper_platform, 400.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
        seed=11, engine=engine, faults=faults_spec, topology=topology,
    )
    # Every member is read before the records exist, then checked bit for
    # bit against its record-based formula.
    members = (
        result.num_chunks, result.dispatched_work, result.delivered_work,
        result.compute_makespan, result.utilization(), result.phase_work(),
        [result.worker_busy_time(w) for w in range(paper_platform.N)],
        list(result.delivered_comp_times()), result.lost_records,
        [result.worker_records(w) for w in range(paper_platform.N)],
    )
    assert "records" not in result.__dict__
    records = result.records
    phase_work: dict[str, float] = {}
    for r in records:
        phase_work[r.phase] = phase_work.get(r.phase, 0.0) + r.size
    delivered = [r for r in records if not r.lost]
    expected = (
        len(records),
        sum(r.size for r in records),
        sum(r.size for r in delivered),
        max((r.comp_end for r in delivered), default=0.0)
        if result.returns else result.makespan,
        sum(r.comp_time for r in delivered) / (paper_platform.N * result.makespan),
        phase_work,
        [
            sum(r.comp_time for r in records if r.worker == w)
            for w in range(paper_platform.N)
        ],
        [r.comp_time for r in delivered],
        tuple(r for r in records if r.lost),
        [[r for r in records if r.worker == w] for w in range(paper_platform.N)],
    )
    assert members == expected
    assert (len(result.lost_records) > 0) == (faults_spec is not None and "crash" in faults_spec)
    assert (len(result.returns) > 0) == (topology == "star:out=0.3")
