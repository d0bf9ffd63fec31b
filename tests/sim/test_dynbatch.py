"""Tests for the lockstep dynamic batch simulator."""

import numpy as np
import pytest

from repro.core.registry import make_scheduler
from repro.errors import NormalErrorModel
from repro.errors.faults import make_fault_model
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import dynbatch
from repro.sim.dynbatch import BatchArena, DynamicCell, simulate_dynamic_cells
from repro.sim.fastsim import simulate_fast
from tests.cells import dynamic_cell

W = 1000.0
SEEDS = tuple(range(20, 26))

BATCHABLE = (
    "Factoring", "WeightedFactoring", "RUMR", "RUMR-plain", "RUMR_70",
    "FSC", "AdaptiveRUMR",
)


def scalar_makespans(platform, scheduler, error, seeds):
    model = NormalErrorModel(magnitude=error)
    return np.array(
        [
            simulate_fast(
                platform, W, scheduler, model, seed=s, collect_records=False
            ).makespan
            for s in seeds
        ]
    )


@pytest.fixture(scope="module")
def hom_platform():
    return homogeneous_platform(10, S=1.0, bandwidth_factor=1.4, cLat=0.0, nLat=0.1)


@pytest.fixture(scope="module")
def het_platform():
    # Mixed speeds, bandwidths and latencies, every link cost nonzero.
    return PlatformSpec(
        workers=(
            WorkerSpec(S=1.0, B=2.0, cLat=0.1, nLat=0.05, tLat=0.02),
            WorkerSpec(S=2.5, B=1.2, cLat=0.0, nLat=0.1, tLat=0.0),
            WorkerSpec(S=0.7, B=np.inf, cLat=0.3, nLat=0.01, tLat=0.1),
        )
    )


class TestExactAgreement:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_zero_error_bitwise_equal(self, hom_platform, name):
        scheduler = make_scheduler(name, 0.0)
        scalar = scalar_makespans(hom_platform, scheduler, 0.0, SEEDS)
        batch = dynamic_cell(hom_platform, scheduler, W, 0.0, SEEDS)
        assert np.array_equal(scalar, batch)

    @pytest.mark.parametrize("name", BATCHABLE)
    def test_nonzero_error_bitwise_equal_when_no_resample(self, hom_platform, name):
        # At 0.05 the truncation floor is essentially never hit; at 0.5 it
        # is, and the filtered factor streams are still consumed exactly
        # like the scalar draws, so the whole trajectory matches bit for
        # bit either way.
        for error in (0.05, 0.5):
            scheduler = make_scheduler(name, error)
            scalar = scalar_makespans(hom_platform, scheduler, error, SEEDS)
            batch = dynamic_cell(hom_platform, scheduler, W, error, SEEDS)
            assert np.array_equal(scalar, batch), error

    @pytest.mark.parametrize("name", BATCHABLE)
    def test_heterogeneous_platform_bitwise_equal(self, het_platform, name):
        scheduler = make_scheduler(name, 0.05)
        scalar = scalar_makespans(het_platform, scheduler, 0.05, SEEDS)
        batch = dynamic_cell(het_platform, scheduler, W, 0.05, SEEDS)
        assert np.array_equal(scalar, batch)


class TestVectorizedFaultPlane:
    """Fault rows run on the lockstep path; deferral is the exception."""

    def scalar_fault_makespans(self, platform, make, fault, seeds):
        from repro.errors.faults import make_fault_model

        model = NormalErrorModel(magnitude=0.0)
        fm = make_fault_model(fault)
        return np.array(
            [
                simulate_fast(
                    platform, W, make(), model, seed=s,
                    collect_records=False, faults=fm,
                ).makespan
                for s in seeds
            ]
        )

    @pytest.mark.parametrize(
        "name", ["RUMR", "RUMR-plain", "AdaptiveRUMR", "WeightedFactoring"]
    )
    def test_previously_deferred_kernels_run_crash_rows_in_lockstep(
        self, hom_platform, name
    ):
        # These kernel families once routed every crash row to the scalar
        # engine; they now replay crash recovery in lockstep, bitwise.
        from repro.errors.faults import make_fault_model

        fault = "crash:p=0.6,tmax=80"
        perf: dict = {}
        cell = DynamicCell(
            platform=hom_platform,
            scheduler=make_scheduler(name, 0.0),
            total_work=W,
            error=0.0,
            seeds=SEEDS,
            faults=make_fault_model(fault),
        )
        batch = simulate_dynamic_cells([cell], perf=perf)[0]
        scalar = self.scalar_fault_makespans(
            hom_platform, lambda: make_scheduler(name, 0.0), fault, SEEDS
        )
        assert np.array_equal(batch, scalar)
        assert perf.get("rows_deferred_scalar", 0) == 0

    def test_rumr_crash_at_zero_defers_to_scalar(self, hom_platform):
        # A crash observable at the very first decide makes scalar RUMR
        # replan from scratch — inexpressible in the kernel, so the row
        # takes the documented exception path and still matches exactly.
        from repro.errors.faults import make_fault_model

        fault = "crash:worker=0,at=0"
        perf: dict = {}
        cell = DynamicCell(
            platform=hom_platform,
            scheduler=make_scheduler("RUMR", 0.0),
            total_work=W,
            error=0.0,
            seeds=SEEDS,
            faults=make_fault_model(fault),
        )
        batch = simulate_dynamic_cells([cell], perf=perf)[0]
        scalar = self.scalar_fault_makespans(
            hom_platform, lambda: make_scheduler("RUMR", 0.0), fault, SEEDS
        )
        assert np.array_equal(batch, scalar)
        assert perf["rows_deferred_scalar"] == len(SEEDS)


class TestStatisticalAgreement:
    def test_means_match_scalar_engine_at_large_error(self, hom_platform):
        # At error = 0.3 truncation resampling fires on some seeds; the
        # batch streams filter exactly like the scalar draws, so every
        # paired seed stays bitwise identical.
        seeds = list(range(200))
        scheduler = make_scheduler("Factoring", 0.3)
        scalar = scalar_makespans(hom_platform, scheduler, 0.3, seeds)
        batch = dynamic_cell(hom_platform, scheduler, W, 0.3, seeds)
        assert batch.mean() == pytest.approx(scalar.mean(), rel=2e-3)
        assert np.array_equal(scalar, batch)


class TestMerging:
    def test_merged_cells_equal_solo_cells(self, hom_platform, het_platform):
        cells, solo = [], []
        for platform in (hom_platform, het_platform):
            for error in (0.0, 0.2):
                for name in ("Factoring", "WeightedFactoring", "RUMR"):
                    scheduler = make_scheduler(name, error)
                    cells.append(
                        DynamicCell(
                            platform=platform,
                            scheduler=scheduler,
                            total_work=W,
                            error=error,
                            seeds=SEEDS,
                        )
                    )
                    solo.append(
                        dynamic_cell(platform, scheduler, W, error, SEEDS)
                    )
        merged = simulate_dynamic_cells(cells)
        assert all(np.array_equal(m, s) for m, s in zip(merged, solo))

    def test_row_chunking_does_not_change_results(self, hom_platform):
        cells = [
            DynamicCell(
                platform=hom_platform,
                scheduler=make_scheduler(name, error),
                total_work=W,
                error=error,
                seeds=SEEDS,
            )
            for name in ("Factoring", "RUMR")
            for error in (0.0, 0.1)
        ]
        unchunked = simulate_dynamic_cells(cells)
        chunked = simulate_dynamic_cells(cells, max_rows=4)
        assert all(np.array_equal(u, c) for u, c in zip(unchunked, chunked))


class TestFlatState:
    def test_arena_views_are_contiguous_prefixes(self):
        arena = BatchArena()
        big = arena.take("x", (4, 6, 3), fill=1.0)
        assert big.flags.c_contiguous
        small = arena.take("x", (3, 2), fill=7.0)
        # Fewer rows *and* fewer columns than the buffer's first user:
        # still one contiguous, fully refilled block.
        assert small.shape == (3, 2)
        assert small.flags.c_contiguous
        assert np.all(small == 7.0)
        assert np.shares_memory(big, small)

    @pytest.mark.parametrize(
        "fault", [None, "crash:p=0.5,tmax=100", "spike:p=0.25,delay=4"]
    )
    def test_batched_fault_queue_growth_is_bitwise_neutral(
        self, hom_platform, het_platform, monkeypatch, fault
    ):
        # One-slot rings grow on nearly every dispatch, through
        # compaction (288 rows) and under losses; the queues must stay
        # FIFO and every result must match the default capacity bit for
        # bit.
        cells = [
            DynamicCell(
                platform=platform,
                scheduler=make_scheduler(name, error),
                total_work=W,
                error=error,
                seeds=tuple(range(20, 44)),
                faults=None if fault is None else make_fault_model(fault),
            )
            for platform in (hom_platform, het_platform)
            for name in ("Factoring", "RUMR", "AdaptiveRUMR")
            for error in (0.0, 0.2)
        ]
        default = simulate_dynamic_cells(cells)
        monkeypatch.setattr(dynbatch, "_INITIAL_SLOTS", 1)
        grown = simulate_dynamic_cells(cells)
        assert all(np.array_equal(d, g) for d, g in zip(default, grown))


class TestCrashState:
    """The engine's kept crash state equals ``crash_t <= now`` at every step."""

    def test_kept_state_matches_clock_across_jumps_and_compaction(
        self, monkeypatch
    ):
        seen = {"wait_jumps": 0, "compactions": 0}

        class Checked(dynbatch._Lockstep):
            def contexts(self, pops):
                if not self.any_crash:
                    return super().contexts(pops)
                before = self.n_crashed.copy()
                waited = self.action == dynbatch.WAIT_FOR_COMPLETION
                ctxs = super().contexts(pops)
                expect = self.crash_t <= self.now[:, None]
                assert np.array_equal(self.crashed, expect)
                assert np.array_equal(self.n_crashed, expect.sum(axis=1))
                jumped = waited & (self.n_crashed - before >= 2)
                seen["wait_jumps"] += int(jumped.sum())
                return ctxs

            def _compact(self):
                super()._compact()
                seen["compactions"] += 1

        monkeypatch.setattr(dynbatch, "_Lockstep", Checked)
        # One slow worker keeps the master waiting on its chunk long after
        # the fast ones went idle, so a single wait jump can pass several
        # of their crash times; 300 rows are enough to trigger compaction.
        platform = PlatformSpec(
            (WorkerSpec(S=0.2, B=50.0, nLat=0.1),)
            + (WorkerSpec(S=10.0, B=50.0, nLat=0.1),) * 5
        )
        cells = [
            DynamicCell(
                platform=platform,
                scheduler=make_scheduler(name, 0.0),
                total_work=200.0,
                error=0.0,
                seeds=tuple(range(150)),
                faults=make_fault_model("crash:p=0.8,tmax=60"),
            )
            for name in ("Factoring", "RUMR")
        ]
        simulate_dynamic_cells(cells)
        assert seen["wait_jumps"] > 0
        assert seen["compactions"] > 0


class TestValidation:
    def test_non_batchable_scheduler_rejected(self, hom_platform):
        with pytest.raises(TypeError, match="not batch-dynamic"):
            DynamicCell(
                platform=hom_platform,
                scheduler=make_scheduler("UMR", 0.1),
                total_work=W,
                error=0.1,
                seeds=SEEDS,
            )

    def test_negative_error_rejected(self, hom_platform):
        with pytest.raises(ValueError, match="error magnitude"):
            DynamicCell(
                platform=hom_platform,
                scheduler=make_scheduler("Factoring", 0.0),
                total_work=W,
                error=-0.1,
                seeds=SEEDS,
            )

    def test_empty_seeds_rejected(self, hom_platform):
        with pytest.raises(ValueError, match="at least one seed"):
            DynamicCell(
                platform=hom_platform,
                scheduler=make_scheduler("Factoring", 0.0),
                total_work=W,
                error=0.0,
                seeds=(),
            )

    def test_bad_mode_rejected(self, hom_platform):
        cell = DynamicCell(
            platform=hom_platform,
            scheduler=make_scheduler("Factoring", 0.0),
            total_work=W,
            error=0.0,
            seeds=SEEDS,
        )
        with pytest.raises(ValueError, match="perturbation mode"):
            simulate_dynamic_cells([cell], mode="add")

    def test_bad_max_rows_rejected(self, hom_platform):
        cell = DynamicCell(
            platform=hom_platform,
            scheduler=make_scheduler("Factoring", 0.0),
            total_work=W,
            error=0.0,
            seeds=SEEDS,
        )
        with pytest.raises(ValueError, match="max_rows"):
            simulate_dynamic_cells([cell], max_rows=0)
