"""Tests for the fast engine's platform semantics."""

import pytest

from repro.core import Factoring
from repro.core.base import WAIT, Dispatch, DispatchSource, DeadlockError, Scheduler, StaticPlanSource
from repro.errors import NoError
from repro.platform import PlatformSpec, WorkerSpec
from repro.sim import simulate, simulate_fast


class ListScheduler(Scheduler):
    """Test helper: replay an explicit list of dispatches."""

    name = "list"

    def __init__(self, dispatches):
        self.dispatches = dispatches

    def create_source(self, platform, total_work):
        return StaticPlanSource(self.dispatches)


def single_worker(S=1.0, B=2.0, cLat=0.0, nLat=0.0, tLat=0.0):
    return PlatformSpec([WorkerSpec(S=S, B=B, cLat=cLat, nLat=nLat, tLat=tLat)])


class TestTimelineSemantics:
    def test_single_chunk_timeline(self):
        p = single_worker(S=2.0, B=4.0, cLat=0.5, nLat=0.25, tLat=0.1)
        sched = ListScheduler([Dispatch(worker=0, size=8.0)])
        result = simulate(p, 8.0, sched)
        (r,) = result.records
        assert r.send_start == 0.0
        assert r.send_end == pytest.approx(0.25 + 8.0 / 4.0)  # nLat + c/B
        assert r.arrival == pytest.approx(r.send_end + 0.1)  # + tLat
        assert r.comp_start == r.arrival
        assert r.comp_end == pytest.approx(r.comp_start + 0.5 + 8.0 / 2.0)
        assert result.makespan == r.comp_end

    def test_link_serialization(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=2.0, nLat=0.5)] * 2)
        sched = ListScheduler(
            [Dispatch(worker=0, size=2.0), Dispatch(worker=1, size=2.0)]
        )
        result = simulate(p, 4.0, sched)
        a, b = result.records
        assert b.send_start == a.send_end  # second transfer waits for the link

    def test_tlat_overlaps_with_next_transfer(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=2.0, tLat=5.0)] * 2)
        sched = ListScheduler(
            [Dispatch(worker=0, size=2.0), Dispatch(worker=1, size=2.0)]
        )
        result = simulate(p, 4.0, sched)
        a, b = result.records
        # The second send starts before the first chunk has even arrived.
        assert b.send_start < a.arrival

    def test_worker_fifo_queueing(self):
        p = single_worker(S=1.0, B=100.0)
        sched = ListScheduler(
            [Dispatch(worker=0, size=10.0), Dispatch(worker=0, size=10.0)]
        )
        result = simulate(p, 20.0, sched)
        a, b = result.records
        assert b.comp_start == pytest.approx(a.comp_end)  # queued behind

    def test_compute_overlaps_reception(self):
        # Worker computes chunk 1 while chunk 2 is in flight (front-end).
        p = single_worker(S=10.0, B=1.0)
        sched = ListScheduler(
            [Dispatch(worker=0, size=5.0), Dispatch(worker=0, size=5.0)]
        )
        result = simulate(p, 10.0, sched)
        a, b = result.records
        assert a.comp_end < b.arrival  # compute finished during 2nd transfer
        assert b.comp_start == b.arrival

    def test_makespan_zero_for_empty_plan(self):
        result = simulate(single_worker(), 1.0, ListScheduler([]))
        assert result.makespan == 0.0
        assert result.num_chunks == 0


class TestDynamicSemantics:
    def test_wait_without_outstanding_chunks_deadlocks(self):
        class BadSource(DispatchSource):
            def next_dispatch(self, view):
                return WAIT

        class BadScheduler(Scheduler):
            name = "bad"

            def create_source(self, platform, total_work):
                return BadSource()

        with pytest.raises(DeadlockError):
            simulate(single_worker(), 1.0, BadScheduler())

    def test_fast_engine_wait_without_outstanding_chunks_deadlocks(self):
        # Same contract violation, driven through simulate_fast directly:
        # the fast engine's WAIT handler must raise (not spin or hang)
        # when its future-completions heap is empty.
        class AlwaysWaitSource(DispatchSource):
            def next_dispatch(self, view):
                return WAIT

        class AlwaysWait(Scheduler):
            name = "always-wait"

            def create_source(self, platform, total_work):
                return AlwaysWaitSource()

        with pytest.raises(DeadlockError, match="WAIT with no outstanding chunk"):
            simulate_fast(single_worker(), 1.0, AlwaysWait(), NoError(), seed=0)

    def test_view_hides_future_completions(self):
        # A dynamic source sees a worker as busy until its chunk's real
        # completion time has passed.
        observations = []

        class Spy(DispatchSource):
            def __init__(self):
                self.step = 0

            def next_dispatch(self, view):
                self.step += 1
                if self.step == 1:
                    return Dispatch(worker=0, size=4.0)
                observations.append((view.now, view.pending_chunks(0)))
                if self.step == 2:
                    return WAIT
                return None

        class SpyScheduler(Scheduler):
            name = "spy"

            def create_source(self, platform, total_work):
                return Spy()

        p = single_worker(S=1.0, B=2.0)
        simulate(p, 4.0, SpyScheduler())
        # After the transfer (t=2) the chunk is still computing (ends t=6):
        assert observations[0] == (2.0, 1)
        # After the WAIT wake-up the completion is visible:
        assert observations[1] == (6.0, 0)

    def test_pending_work_accounting(self):
        sizes = []

        class Spy(DispatchSource):
            def __init__(self):
                self.step = 0

            def next_dispatch(self, view):
                self.step += 1
                if self.step <= 2:
                    return Dispatch(worker=0, size=3.0)
                sizes.append(view.pending_work(0))
                return None

        class SpyScheduler(Scheduler):
            name = "spy"

            def create_source(self, platform, total_work):
                return Spy()

        p = single_worker(S=1.0, B=1.0)
        simulate(p, 6.0, SpyScheduler())
        # At t=6 (after both transfers) the first chunk (ends t=6) is done,
        # the second (ends t=9) still pending.
        assert sizes == [3.0]


class TestErrorHandling:
    def test_nonpositive_work_rejected(self):
        with pytest.raises(ValueError):
            simulate(single_worker(), 0.0, ListScheduler([]))

    @pytest.mark.parametrize("engine", ("fast", "des"))
    @pytest.mark.parametrize("total_work", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_work_rejected(self, engine, total_work):
        # Infinite work used to run as makespan 0 with no chunks.
        with pytest.raises(ValueError, match="total_work must be > 0"):
            simulate(single_worker(), total_work, Factoring(), engine=engine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            simulate(single_worker(), 1.0, ListScheduler([]), engine="quantum")

    def test_simulate_fast_entry_point(self):
        p = single_worker()
        result = simulate_fast(p, 2.0, ListScheduler([Dispatch(worker=0, size=2.0)]), NoError())
        assert result.num_chunks == 1


class TestMakespanOnlyMode:
    """collect_records=False must change allocation, never the trajectory."""

    def _platform(self, n=6):
        return PlatformSpec(
            [WorkerSpec(S=1.0, B=2.0, cLat=0.1, nLat=0.05, tLat=0.02)] * n
        )

    def test_records_empty_makespan_equal_static(self):
        from repro.core import UMR

        p = self._platform()
        full = simulate_fast(p, 200.0, UMR(), NoError(), seed=3)
        lean = simulate_fast(p, 200.0, UMR(), NoError(), seed=3, collect_records=False)
        assert lean.records == ()
        assert full.records  # the default still collects
        assert lean.makespan == full.makespan

    def test_dynamic_scheduler_trajectory_unchanged(self):
        # Factoring consults observed completions; the makespan-only mode
        # must feed it the identical view (same RNG consumption, same
        # decisions) at every error level.
        from repro.core import Factoring
        from repro.errors import make_error_model

        p = self._platform()
        for error in (0.0, 0.2, 0.4):
            model = make_error_model("normal", error)
            full = simulate_fast(p, 150.0, Factoring(), model, seed=11)
            model = make_error_model("normal", error)
            lean = simulate_fast(
                p, 150.0, Factoring(), model, seed=11, collect_records=False
            )
            assert lean.makespan == full.makespan
            assert lean.records == ()

    def test_metadata_preserved(self):
        p = self._platform(2)
        result = simulate_fast(
            p, 10.0, ListScheduler([Dispatch(worker=0, size=10.0)]), NoError(),
            seed=5, collect_records=False,
        )
        assert result.scheduler_name == "list"
        assert result.seed == 5
        assert result.total_work == 10.0


class TestObservedCompletionsLazyMerge:
    def test_notes_sorted_and_filtered_by_now(self):
        # Interleave dispatches to two workers so realized completion times
        # arrive out of global order, then check the merged view at several
        # decision times.
        p = PlatformSpec([
            WorkerSpec(S=10.0, B=10.0),   # fast worker: finishes early
            WorkerSpec(S=0.5, B=10.0),    # slow worker
        ])
        sched = ListScheduler([
            Dispatch(worker=1, size=2.0),  # slow chunk first on the link
            Dispatch(worker=0, size=2.0),
            Dispatch(worker=1, size=1.0),
            Dispatch(worker=0, size=1.0),
        ])
        result = simulate_fast(p, 6.0, sched, NoError())
        times = [r.comp_end for r in result.records]
        assert times != sorted(times)  # out-of-order arrival is exercised

    def test_view_cache_invalidates_on_time_advance(self):
        observed = []

        class Peeker(DispatchSource):
            def __init__(self):
                self.step = 0

            def next_dispatch(self, view):
                self.step += 1
                observed.append(len(view.observed_completions()))
                # Call twice at the same decision point: cached result.
                assert view.observed_completions() is view.observed_completions()
                if self.step <= 3:
                    return Dispatch(worker=0, size=2.0)
                if observed[-1] < 3:
                    return WAIT
                return None

        class PeekScheduler(Scheduler):
            name = "peeker"

            def create_source(self, platform, total_work):
                return Peeker()

        simulate(single_worker(S=1.0, B=100.0), 6.0, PeekScheduler())
        assert observed[0] == 0
        assert observed[-1] == 3  # all completions eventually visible
        assert observed == sorted(observed)
