"""Tests for SimResult accessors and schedule validation."""

import dataclasses

import pytest

from repro.core import RUMR, UMR
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


def _rows(records):
    """The timeline rows of ``records``: each record's fields after ``index``."""
    return tuple(dataclasses.astuple(r)[1:] for r in records)


@pytest.fixture
def result(paper_platform):
    return simulate(paper_platform, W, RUMR(known_error=0.3), NormalErrorModel(0.3), seed=5)


def test_dispatched_work_matches_total(result):
    assert result.dispatched_work == pytest.approx(W, rel=1e-9)


def test_worker_records_partition_all_records(result):
    total = sum(len(result.worker_records(w)) for w in range(result.platform.N))
    assert total == result.num_chunks


def test_worker_busy_time_positive(result):
    assert all(result.worker_busy_time(w) > 0 for w in range(result.platform.N))


def test_utilization_in_unit_interval(result):
    assert 0.0 < result.utilization() <= 1.0


def test_phase_work_sums_to_total(result):
    assert sum(result.phase_work().values()) == pytest.approx(W, rel=1e-9)


def test_provenance_fields(result, paper_platform):
    assert result.scheduler_name == "RUMR"
    assert result.seed == 5
    assert result.platform == paper_platform
    assert result.total_work == W


def test_validate_catches_link_overlap(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad_records = list(good.records)
    r = bad_records[1]
    bad_records[1] = dataclasses.replace(r, send_start=r.send_start - 1.0)
    bad = dataclasses.replace(good, rows=_rows(bad_records))
    with pytest.raises(AssertionError, match="link overlap"):
        validate_schedule(bad)


def test_validate_catches_compute_before_arrival(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad_records = list(good.records)
    r = bad_records[0]
    bad_records[0] = dataclasses.replace(r, comp_start=r.arrival - 0.5)
    bad = dataclasses.replace(good, rows=_rows(bad_records))
    with pytest.raises(AssertionError):
        validate_schedule(bad)


def test_validate_catches_lost_work(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad = dataclasses.replace(good, total_work=W * 2)
    with pytest.raises(AssertionError, match="dispatched"):
        validate_schedule(bad)


def test_validate_catches_wrong_makespan(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad = dataclasses.replace(good, makespan=good.makespan / 2)
    with pytest.raises(AssertionError, match="makespan"):
        validate_schedule(bad)


def test_validate_catches_port_overflow(paper_platform):
    # Three transfers at once on a two-port star.
    good = simulate(paper_platform, W, UMR(), topology="star:ports=2")
    validate_schedule(good)
    bad_records = list(good.records)
    for i in (1, 2):
        bad_records[i] = dataclasses.replace(
            bad_records[i], send_start=bad_records[0].send_start
        )
    bad = dataclasses.replace(good, rows=_rows(bad_records))
    with pytest.raises(AssertionError, match="link overlap"):
        validate_schedule(bad)


def test_validate_checks_one_return_per_delivered_chunk(paper_platform):
    good = simulate(paper_platform, W, UMR(), topology="star:out=0.2")
    validate_schedule(good)
    missing = dataclasses.replace(good, returns=good.returns[1:])
    with pytest.raises(AssertionError, match="returns"):
        validate_schedule(missing)
    stray = dataclasses.replace(good, topology="star")
    with pytest.raises(AssertionError, match="returns"):
        validate_schedule(stray)


def test_validate_makespan_is_last_receipt_with_returns(paper_platform):
    good = simulate(paper_platform, W, UMR(), topology="star:out=0.2")
    bad = dataclasses.replace(good, makespan=good.compute_makespan)
    with pytest.raises(AssertionError, match="makespan"):
        validate_schedule(bad)


def test_work_sums_cached_without_changing_value_semantics(result):
    import pickle

    dispatched, delivered = result.dispatched_work, result.delivered_work
    assert dispatched == sum(r.size for r in result.records)
    assert delivered == sum(r.size for r in result.records if not r.lost)
    # Cached on the instance, summed once.
    assert result.__dict__["dispatched_work"] is dispatched
    assert result.dispatched_work is dispatched
    # Equality and hashing see the fields only, cached or not.
    fresh = dataclasses.replace(result)
    assert "dispatched_work" not in fresh.__dict__
    assert fresh == result
    # replace() recomputes from the new rows.
    half = dataclasses.replace(result, rows=result.rows[:1])
    assert half.dispatched_work == result.records[0].size
    assert half != result
    # Pickle round-trips to an equal result with the same sums.
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert clone.dispatched_work == dispatched
    assert clone.delivered_work == delivered
