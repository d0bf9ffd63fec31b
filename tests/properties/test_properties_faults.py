"""Property-based tests (hypothesis) for fault injection and recovery.

Three invariant families:

* **work conservation** — whatever the crash pattern, delivered plus
  lost-then-redispatched work accounts for the full workload: recovery
  schedulers deliver exactly ``W_total`` as long as one worker survives,
  and every scheduler satisfies ``delivered + lost == dispatched``;
* **no post-crash dispatch** — once a worker's crash is observable, a
  recovery scheduler never targets it (the t=0 case: the dead worker
  receives nothing, ever);
* **monotone degradation** — for *static* plans the fault arithmetic is
  provably monotone: an earlier crash loses weakly more work, a longer
  pause weakly delays the makespan.  (Pointwise monotonicity is *not*
  asserted for the adaptive schedulers: their heuristics are not monotone
  in the worker count, so an earlier crash occasionally yields a luckier
  re-plan — a real property of the algorithms, not a simulator artifact.)
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import RUMR, UMR, EqualSplit, Factoring, MultiInstallment, WeightedFactoring
from repro.errors import FaultSchedule, FrozenFaults, NoError, NormalErrorModel
from repro.errors.faults import FaultStack, fault_stream
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule
from tests.properties.strategies import (
    finite,
    homogeneous_platforms,
    seeds as make_seeds,
    workloads as make_workloads,
)

pytestmark = pytest.mark.property

platforms = homogeneous_platforms(
    min_workers=2, max_workers=12, min_factor=1.1, max_factor=2.5,
    max_latency=0.6, with_tlat=False,
)

workloads = make_workloads(min_work=50.0, max_work=2000.0)
crash_times = st.floats(min_value=0.0, max_value=300.0, **finite)
seeds = make_seeds(2**31 - 1)

RECOVERY = [
    ("Factoring", lambda: Factoring()),
    ("RUMR", lambda: RUMR(known_error=0.2)),
    ("WeightedFactoring", lambda: WeightedFactoring()),
]
STATIC = [
    ("UMR", lambda: UMR()),
    ("EqualSplit", lambda: EqualSplit()),
    ("MI-2", lambda: MultiInstallment(2)),
]


class TestWorkConservation:
    @given(platform=platforms, work=workloads, at=crash_times, seed=seeds)
    def test_recovery_delivers_everything(self, platform, work, at, seed):
        # One worker crashes; the survivors must absorb its share exactly.
        worker = seed % platform.N
        for _, make in RECOVERY:
            result = simulate(
                platform, work, make(), NormalErrorModel(0.2), seed=seed,
                engine="fast", faults=f"crash:worker={worker},at={at}",
            )
            assert result.delivered_work == pytest.approx(work, rel=1e-9)
            lost = sum(r.size for r in result.records if r.lost)
            assert result.delivered_work + lost == pytest.approx(
                result.dispatched_work, rel=1e-9
            )
            validate_schedule(result)

    @given(platform=platforms, work=workloads, seed=seeds)
    def test_accounting_identity_under_random_crashes(self, platform, work, seed):
        # Static schedulers lose work but the ledger still balances.
        for _, make in STATIC:
            result = simulate(
                platform, work, make(), NoError(), seed=seed, engine="fast",
                faults="crash:p=0.5,tmax=100",
            )
            lost = sum(r.size for r in result.records if r.lost)
            assert lost == pytest.approx(result.work_lost, rel=1e-12, abs=1e-9)
            assert result.delivered_work + result.work_lost == pytest.approx(
                result.dispatched_work, rel=1e-9
            )
            assert result.dispatched_work == pytest.approx(work, rel=1e-9)


class TestNoPostCrashDispatch:
    @given(platform=platforms, work=workloads, seed=seeds)
    def test_dead_from_start_receives_nothing(self, platform, work, seed):
        worker = seed % platform.N
        for _, make in RECOVERY:
            result = simulate(
                platform, work, make(), NoError(), seed=seed, engine="fast",
                faults=f"crash:worker={worker},at=0",
            )
            assert all(r.worker != worker for r in result.records)
            assert result.work_lost == 0.0

    @given(platform=platforms, work=workloads, at=crash_times, seed=seeds)
    def test_chunks_sent_after_crash_are_lost(self, platform, work, at, seed):
        # Loss-rule consistency: anything sent to the crashed worker after
        # its crash instant can never complete.
        worker = seed % platform.N
        for _, make in RECOVERY + STATIC:
            result = simulate(
                platform, work, make(), NoError(), seed=seed, engine="fast",
                faults=f"crash:worker={worker},at={at}",
            )
            for r in result.records:
                if r.worker == worker and r.send_start > at:
                    assert r.lost


class TestMonotoneDegradation:
    @given(platform=platforms, work=workloads, seed=seeds,
           t1=crash_times, t2=crash_times)
    def test_earlier_crash_loses_more_static(self, platform, work, seed, t1, t2):
        t_early, t_late = min(t1, t2), max(t1, t2)
        worker = seed % platform.N
        for _, make in STATIC:
            def lost_at(t):
                return simulate(
                    platform, work, make(), NormalErrorModel(0.3), seed=seed,
                    engine="fast", faults=f"crash:worker={worker},at={t}",
                ).work_lost
            assert lost_at(t_early) >= lost_at(t_late) - 1e-9

    @given(platform=platforms, work=workloads, seed=seeds,
           d1=st.floats(min_value=0.0, max_value=60.0, **finite),
           d2=st.floats(min_value=0.0, max_value=60.0, **finite))
    def test_longer_pause_never_faster_static(self, platform, work, seed, d1, d2):
        d_short, d_long = min(d1, d2), max(d1, d2)
        for _, make in STATIC:
            def makespan_with(d):
                return simulate(
                    platform, work, make(), NormalErrorModel(0.3), seed=seed,
                    engine="fast", faults=f"pause:p=1,tmax=0,dur={d}",
                ).makespan
            assert makespan_with(d_long) >= makespan_with(d_short) - 1e-9


class TestSampleBatchIdentity:
    """``FaultModel.sample_batch`` must equal looping ``sample``, bitwise.

    The batch engines realize fault schedules through the plane; any
    drift from the scalar draw order (hit test then onset, worker 0..n-1,
    third spawned stream) would silently change every fault sweep.
    """

    @staticmethod
    def _assert_row_identical(model, platform, plane, r, seed):
        import numpy as np

        from repro.errors.faults import fault_stream

        rng = fault_stream(seed)
        ref = model.sample(platform, rng)
        got = plane.schedule(r)
        # Bit-level equality: view every float through its u64 pattern so
        # -0.0 vs 0.0 or ULP drift cannot hide behind float ==.
        for a, b in (
            (got.crash_times, ref.crash_times),
            (got.pauses, ref.pauses),
            (got.slowdowns, ref.slowdowns),
            ((got.spike_prob, got.spike_delay), (ref.spike_prob, ref.spike_delay)),
        ):
            av = np.asarray(a, dtype=np.float64).view(np.uint64)
            bv = np.asarray(b, dtype=np.float64).view(np.uint64)
            assert np.array_equal(av, bv), (a, b)
        assert bool(plane.fault_row[r]) == ref.any_faults
        if ref.any_faults and ref.spike_prob > 0.0:
            # The retained generator must sit exactly where the scalar
            # stream sits after sampling: the next draws coincide.
            assert plane.rngs[r] is not None
            assert np.array_equal(plane.rngs[r].random(4), rng.random(4))
        else:
            assert plane.rngs[r] is None

    @given(
        platform=platforms,
        seed0=seeds,
        count=st.integers(min_value=1, max_value=7),
        kind=st.sampled_from(["crash", "pause", "slow", "spike", "none", "det"]),
        p=st.floats(min_value=0.0, max_value=1.0, **finite),
        tmax=st.floats(min_value=0.0, max_value=200.0, **finite),
        mag=st.floats(min_value=0.0, max_value=50.0, **finite),
    )
    def test_batch_matches_scalar_all_kinds(
        self, platform, seed0, count, kind, p, tmax, mag
    ):
        from repro.errors.faults import make_fault_model

        if kind == "crash":
            spec = f"crash:p={p},tmax={tmax}"
        elif kind == "pause":
            spec = f"pause:p={p},tmax={tmax},dur={mag}"
        elif kind == "slow":
            spec = f"slow:p={p},tmax={tmax},factor={1.0 + mag}"
        elif kind == "spike":
            spec = f"spike:p={p},delay={mag}"
        elif kind == "det":
            spec = f"crash:worker={seed0 % platform.N},at={tmax}"
        else:
            spec = "none"
        model = make_fault_model(spec)
        seed_list = [seed0 + i for i in range(count)]
        plane = model.sample_batch(platform, seed_list)
        assert plane.num_rows == count
        assert plane.num_workers == platform.N
        for r, seed in enumerate(seed_list):
            self._assert_row_identical(model, platform, plane, r, seed)

    @given(platform=platforms, seed0=seeds,
           count=st.integers(min_value=1, max_value=5))
    def test_default_loop_covers_mixed_models(self, platform, seed0, count):
        # A third-party model mixing kinds in one schedule rides the base
        # sample_batch loop; the identity must hold there too (including
        # the retained spike generator's position after the crash draws).
        import dataclasses as _dc

        from repro.errors.faults import CrashFaults, FaultModel

        class CrashPlusSpike(FaultModel):
            def sample(self, platform, rng):
                s = CrashFaults(prob=0.4, tmax=60.0).sample(platform, rng)
                return _dc.replace(s, spike_prob=0.3, spike_delay=2.5)

        model = CrashPlusSpike()
        seed_list = [seed0 + i for i in range(count)]
        plane = model.sample_batch(platform, seed_list)
        for r, seed in enumerate(seed_list):
            self._assert_row_identical(model, platform, plane, r, seed)


_CELL_FLOAT = st.floats(min_value=0.0, max_value=100.0, **finite)


@st.composite
def _stack_cells(draw, n):
    """One row: per-worker ``(start, dur)`` plus a schedule built around it.

    Pause and slowdown onsets land on the computation's own boundaries
    (``start == pause_start``, ``start + dur == pause_start``,
    ``start == slow_start``) as often as at random points.
    """
    starts, durs, crashes, pauses, slowdowns = [], [], [], [], []
    for _ in range(n):
        start = draw(_CELL_FLOAT)
        dur = draw(st.floats(min_value=0.0, max_value=50.0, **finite))
        onset = st.sampled_from(["start", "end", "free"])
        where = {"start": start, "end": start + dur}
        pause_at = draw(onset)
        pause_len = draw(st.sampled_from([0.0, 7.5]) | _CELL_FLOAT)
        pauses.append((where.get(pause_at, draw(_CELL_FLOAT)), pause_len))
        slow_at = draw(onset)
        factor = draw(st.sampled_from([1.0, 2.5]) | st.floats(1.0, 4.0, **finite))
        slowdowns.append((where.get(slow_at, draw(_CELL_FLOAT)), factor))
        crashes.append(draw(st.sampled_from([math.inf, 0.0, start + dur]) | _CELL_FLOAT))
        starts.append(start)
        durs.append(dur)
    spike = draw(st.sampled_from([0.0, 0.3, 1.0]))
    schedule = FaultSchedule(
        crash_times=tuple(crashes),
        pauses=tuple(pauses),
        slowdowns=tuple(slowdowns),
        spike_prob=spike,
        spike_delay=2.5 if spike else 0.0,
    )
    return schedule, starts, durs


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@given(
    data=st.data(),
    n_max=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=1, max_value=6),
    seed0=seeds,
    cols=st.integers(min_value=1, max_value=400),
)
def test_batched_fault_stack_matches_scalar_rules(data, n_max, count, seed0, cols):
    """Every ``FaultStack`` transform equals its scalar ``FaultSchedule`` rule.

    Rows of 1..``n_max`` workers are padded to ``n_max``: pad workers must
    come out untouched.  ``stretch`` / ``lost`` / ``loss_time`` are checked
    on the whole block and on flat indices, bit for bit; ``spikes`` columns
    must equal successive ``link_extra`` draws of each row's fault stream,
    also after a ``compact`` drops rows halfway through the columns.
    """
    rows = []
    for r in range(count):
        n = data.draw(st.integers(min_value=1, max_value=n_max))
        rows.append(data.draw(_stack_cells(n)))
    seed_list = [seed0 + r for r in range(count)]
    stack = FaultStack(count, n_max)
    start = np.zeros((count, n_max))
    dur = np.zeros((count, n_max))
    for r, ((schedule, starts, durs), seed) in enumerate(zip(rows, seed_list)):
        n = schedule.num_workers
        platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.5)
        plane = FrozenFaults(schedule).sample_batch(platform, [seed])
        stack.put(slice(r, r + 1), plane)
        start[r, :n] = starts
        dur[r, :n] = durs
        start[r, n:] = 1.0
        dur[r, n:] = 3.0
    stack.seal()

    # Scalar references; a pad worker keeps its duration and is never lost.
    want_dur = dur.copy()
    for r, (schedule, _, _) in enumerate(rows):
        for w in range(schedule.num_workers):
            want_dur[r, w] = schedule.compute_duration(w, start[r, w], dur[r, w])
    end = start + want_dur
    arrival = start * 0.5
    want_seen = end.copy()
    want_lost = np.zeros((count, n_max), dtype=bool)
    for r, (schedule, _, _) in enumerate(rows):
        for w in range(schedule.num_workers):
            seen = schedule.loss_time(w, arrival[r, w], end[r, w])
            if seen is not None:
                want_lost[r, w] = True
                want_seen[r, w] = seen

    got = stack.stretch(None, start, dur)
    assert np.array_equal(_bits(got), _bits(want_dur))
    assert np.array_equal(stack.lost(None, end), want_lost)
    idx = np.array(
        data.draw(st.lists(st.integers(0, count * n_max - 1), min_size=1, max_size=12))
    )
    flat = lambda a: a.reshape(-1)[idx]  # noqa: E731
    got = stack.stretch(idx, flat(start), flat(dur))
    assert np.array_equal(_bits(got), _bits(flat(want_dur)))
    assert np.array_equal(stack.lost(idx, flat(end)), flat(want_lost))
    lost, seen = stack.loss_time(idx, flat(arrival), flat(end))
    assert np.array_equal(lost, flat(want_lost))
    assert np.array_equal(_bits(seen), _bits(flat(want_seen)))

    # Spikes: the scalar stream of each row, one link_extra per dispatch.
    want_spike = np.zeros((count, cols))
    for r, ((schedule, _, _), seed) in enumerate(zip(rows, seed_list)):
        rng = fault_stream(seed)
        want_spike[r] = [schedule.link_extra(rng) for _ in range(cols)]
    if stack.any_spike:
        assert np.array_equal(_bits(stack.spikes(None, cols)), _bits(want_spike))
    half = cols // 2
    pairs = [(r, k) for r in range(count) for k in range(half)]
    if pairs and stack.any_spike:
        rr, kk = (np.array(a) for a in zip(*pairs))
        assert np.array_equal(_bits(stack.spikes(rr, kk)), _bits(want_spike[rr, kk]))
    keep = np.array(
        sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))
    )
    stack.compact(keep)
    assert stack.rows == keep.size
    # Rows carry their own draws and schedules through the compaction.
    got = stack.stretch(None, start[keep], dur[keep])
    assert np.array_equal(_bits(got), _bits(want_dur[keep]))
    if stack.any_spike:
        local = np.repeat(np.arange(keep.size), cols - half)
        kk = np.tile(np.arange(half, cols), keep.size)
        assert np.array_equal(
            _bits(stack.spikes(local, kk)), _bits(want_spike[keep[local], kk])
        )
    else:
        assert not want_spike[keep].any()
