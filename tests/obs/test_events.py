"""Unit tests for the event schema, canonical order, and derivations."""

import json

import pytest

from repro.core import RUMR, UMR, Factoring
from repro.errors import NoError, NormalErrorModel
from repro.obs import (
    EVENT_KINDS,
    SimEvent,
    Tracer,
    canonical_order,
    events_from_result,
    events_to_jsonl,
)
from repro.platform import homogeneous_platform
from repro.sim import simulate


@pytest.fixture
def platform():
    return homogeneous_platform(4, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


class TestCanonicalOrder:
    def test_sorts_by_time_first(self):
        late = SimEvent(5.0, "dispatch_start", 0)
        early = SimEvent(1.0, "comp_end", 3)
        assert canonical_order([late, early]) == (early, late)

    def test_tie_break_completions_before_dispatches(self):
        # At one instant the master observes completions/faults, decides,
        # then dispatches — the canonical order mirrors that.
        t = 10.0
        dispatch = SimEvent(t, "dispatch_start", 0, chunk=7)
        comp_end = SimEvent(t, "comp_end", 2, chunk=3)
        fault = SimEvent(t, "fault", 1, detail="crash")
        decision = SimEvent(t, "recovery_decision", 1, detail="crash-observed")
        boundary = SimEvent(t, "round_boundary", -1, chunk=7)
        comp_start = SimEvent(t, "comp_start", 0, chunk=7)
        shuffled = [dispatch, comp_start, boundary, fault, comp_end, decision]
        assert canonical_order(shuffled) == (
            comp_end, fault, decision, boundary, dispatch, comp_start,
        )

    def test_idempotent(self):
        events = [
            SimEvent(2.0, "comp_start", 1, chunk=1),
            SimEvent(1.0, "dispatch_end", 0, chunk=0),
            SimEvent(1.0, "dispatch_start", 1, chunk=1),
        ]
        once = canonical_order(events)
        assert canonical_order(once) == once

    def test_stable_for_identical_trajectories(self, platform):
        # Emission orders differ between engines; canonical orders match.
        fast_tracer, des_tracer = Tracer(), Tracer()
        simulate(platform, 300.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
                 seed=5, engine="fast", tracer=fast_tracer)
        simulate(platform, 300.0, RUMR(known_error=0.3), NormalErrorModel(0.3),
                 seed=5, engine="des", tracer=des_tracer)
        assert fast_tracer.events() != des_tracer.events()
        assert fast_tracer.canonical() == des_tracer.canonical()


class TestEventsFromResult:
    def test_substream_of_live_trace(self, platform):
        tracer = Tracer()
        result = simulate(
            platform, 300.0, Factoring(), NoError(), seed=3,
            faults="crash:worker=1,at=30", tracer=tracer,
        )
        derived = events_from_result(result)
        live = set(tracer.canonical())
        assert set(derived) <= live
        # What the records cannot carry is exactly what is missing.
        missing_kinds = {e.kind for e in live - set(derived)}
        assert missing_kinds <= {"fault", "recovery_decision"}

    @pytest.mark.parametrize("faults", [None, "crash:worker=1,at=30"])
    def test_result_returns_match_live_trace(self, platform, faults):
        # On a star with result returns the live DES stream, minus what
        # only a live tracer records, is exactly the record-derived one.
        tracer = Tracer()
        result = simulate(
            platform, 300.0, UMR(), NormalErrorModel(0.2), seed=4,
            topology="star:out=0.3", faults=faults, tracer=tracer,
        )
        live_only = {"recovery_decision"}
        live = tuple(
            e for e in tracer.canonical()
            if e.kind not in live_only
            and not (e.kind == "fault" and e.detail == "crash")
        )
        derived = events_from_result(result)
        assert live == derived
        starts = [e for e in derived if e.kind == "return_start"]
        ends = [e for e in derived if e.kind == "return_end"]
        assert len(starts) == len(ends) == len(result.returns) > 0
        delivered = {r.index: r for r in result.records if not r.lost}
        assert {e.chunk for e in ends} == set(delivered)
        for e in ends:
            assert e.size == 0.3 * delivered[e.chunk].size
            assert e.phase == delivered[e.chunk].phase

    def test_lost_chunk_yields_loss_not_compute(self, platform):
        result = simulate(
            platform, 300.0, UMR(), NoError(), seed=0,
            faults="crash:worker=2,at=10",
        )
        assert any(r.lost for r in result.records)
        derived = events_from_result(result)
        lost_chunks = {r.index for r in result.records if r.lost}
        for e in derived:
            if e.chunk in lost_chunks:
                assert e.kind in ("dispatch_start", "dispatch_end", "fault",
                                  "round_boundary")
        losses = [e for e in derived if e.kind == "fault"]
        assert {e.chunk for e in losses} == lost_chunks
        assert all(e.detail == "loss" for e in losses)

    def test_round_boundaries_on_phase_changes(self, platform):
        result = simulate(platform, 300.0, UMR(), NoError())
        derived = events_from_result(result)
        boundaries = [e for e in derived if e.kind == "round_boundary"]
        phases = []
        for r in result.records:
            if not phases or phases[-1] != r.phase:
                phases.append(r.phase)
        assert len(boundaries) == len(phases)
        assert all(e.worker == -1 for e in boundaries)


class TestJsonl:
    def test_round_trips_and_is_deterministic(self):
        events = (
            SimEvent(1.5, "dispatch_start", 0, chunk=0, size=12.5, phase="round0"),
            SimEvent(2.0, "fault", 1, detail="crash"),
        )
        text = events_to_jsonl(events)
        assert text == events_to_jsonl(events)
        decoded = [json.loads(line) for line in text.splitlines()]
        assert decoded[0]["kind"] == "dispatch_start"
        assert decoded[0]["size"] == 12.5
        assert decoded[1]["detail"] == "crash"
        rebuilt = tuple(SimEvent(**d) for d in decoded)
        assert rebuilt == events

    def test_empty_stream_serializes_empty(self):
        assert events_to_jsonl(()) == ""


def test_kind_vocabulary_is_closed():
    assert EVENT_KINDS == {
        "dispatch_start", "dispatch_end", "link_hop", "comp_start", "comp_end",
        "fault", "recovery_decision", "round_boundary",
        "return_start", "return_end",
        "engine_fallback", "cell_quarantined",
        "job_arrival", "job_start", "job_done",
        "worker_excluded", "job_failed", "job_resubmitted",
    }
