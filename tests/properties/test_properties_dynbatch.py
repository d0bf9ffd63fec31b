"""Property-based tests of the lockstep dynamic batch engine contract.

The lockstep engine promises (see ``repro.sim.dynbatch``): bitwise
equality with the scalar engine at every error for every batch-dynamic
scheduler.  Hypothesis drives it over arbitrary homogeneous
platforms, workloads, and scheduler parameters, covering RUMR's phase 1
(UMR rounds), its factoring phase 2, and the degenerate split where
phase 2 is skipped entirely.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factoring import Factoring
from repro.core.rumr import RUMR, phase2_workload
from repro.core.weighted_factoring import WeightedFactoring
from repro.errors import make_error_model
from repro.errors.faults import make_fault_model
from repro.platform import homogeneous_platform
from repro.sim.dynbatch import (
    BatchArena,
    DynamicCell,
    simulate_dynamic_cells,
)
from repro.sim.fastsim import simulate_fast
from tests.cells import dynamic_cell
from tests.properties.strategies import finite, homogeneous_platforms, workloads as make_workloads

pytestmark = pytest.mark.property

platforms = homogeneous_platforms(max_workers=12)

# Crash properties pin worker 0's death, so someone else must survive.
crash_platforms = homogeneous_platforms(min_workers=2, max_workers=12)

workloads = make_workloads(min_work=50.0, max_work=5000.0)

# Factories taking the cell error, mirroring the registry contract.
# RUMR variants span in-order and out-of-order phase 1 and several
# phase-1 fractions (and hence both phase-2 shapes).
dynamic_schedulers = st.sampled_from(
    [
        lambda error: Factoring(),
        lambda error: Factoring(factor=1.5, min_chunk=0.5),
        lambda error: WeightedFactoring(),
        lambda error: RUMR(known_error=error),
        lambda error: RUMR(known_error=error, out_of_order=False),
        lambda error: RUMR(known_error=error, phase1_fraction=0.7),
    ]
)


class _RecordingArena(BatchArena):
    """A :class:`BatchArena` keeping every view it hands out."""

    def __init__(self):
        super().__init__()
        self.views = []

    def take(self, *args, **kwargs):
        view = super().take(*args, **kwargs)
        self.views.append(view)
        return view


def scalar_makespan(platform, work, scheduler, error, seed):
    model = make_error_model("normal", error)
    return simulate_fast(
        platform, work, scheduler, model, seed=seed, collect_records=False
    ).makespan


class TestLockstepScalarEquivalence:
    @settings(deadline=None)
    @given(
        platform=platforms,
        work=workloads,
        factory=dynamic_schedulers,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bitwise_equal_at_zero_error(self, platform, work, factory, seed):
        scheduler = factory(0.0)
        scalar = scalar_makespan(platform, work, scheduler, 0.0, seed)
        batch = dynamic_cell(platform, scheduler, work, 0.0, [seed, seed + 1])
        assert batch.shape == (2,)
        assert batch[0] == scalar

    @settings(deadline=None)
    @given(
        platform=platforms,
        work=workloads,
        factory=dynamic_schedulers,
        error=st.floats(min_value=0.01, max_value=0.25, **finite),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_under_error(self, platform, work, factory, error, seed):
        # Both engines consume the same filtered factor sequence, one draw
        # per transfer and computation, so the match is bitwise.
        scheduler = factory(error)
        scalar = scalar_makespan(platform, work, scheduler, error, seed)
        batch = dynamic_cell(platform, scheduler, work, error, [seed])
        assert batch[0] == scalar


class TestRUMRPhaseCoverage:
    def test_phase2_skip_condition_bitwise_equal(self):
        # A tiny error estimate drives the phase-2 workload below the
        # per-worker overhead threshold, so the split degenerates to
        # w2 = 0 and RUMR runs phase 1 only.  The lockstep engine must
        # reproduce that trajectory exactly.
        platform = homogeneous_platform(
            10, S=1.0, bandwidth_factor=1.4, cLat=0.2, nLat=0.1
        )
        work, error = 1000.0, 0.01
        assert phase2_workload(platform, work, error) == 0.0
        scheduler = RUMR(known_error=error)
        seeds = [3, 4, 5]
        scalar = np.array(
            [scalar_makespan(platform, work, scheduler, error, s) for s in seeds]
        )
        batch = dynamic_cell(platform, scheduler, work, error, seeds)
        assert np.array_equal(scalar, batch)

    def test_phase2_active_condition_bitwise_equal(self):
        # At a large error estimate the same platform keeps a nonzero
        # phase-2 workload, exercising the factoring tail of the kernel.
        platform = homogeneous_platform(
            10, S=1.0, bandwidth_factor=1.4, cLat=0.2, nLat=0.1
        )
        # 0.1 keeps w2 > 0 while the truncation floor stays ~9 sigma away,
        # so no resample can realistically fire and bitwise equality holds.
        work, error = 1000.0, 0.1
        assert phase2_workload(platform, work, error) > 0.0
        scheduler = RUMR(known_error=error)
        seeds = [3, 4, 5]
        scalar = np.array(
            [scalar_makespan(platform, work, scheduler, error, s) for s in seeds]
        )
        batch = dynamic_cell(platform, scheduler, work, error, seeds)
        assert np.array_equal(scalar, batch)


class TestGridPassContract:
    """Properties of the whole-grid lockstep pass (PR 6).

    The runner merges every (platform, error) cell of a sweep into one
    ``simulate_dynamic_cells`` call drawing state from a shared
    :class:`BatchArena`.  Its resilience ladder degrades a failed merged
    pass to per-cell calls, and its arena is reused across sweeps — both
    are only sound if merging and arena reuse never change a single bit.
    """

    @settings(deadline=None, max_examples=25)
    @given(
        platform=platforms,
        work=workloads,
        factories=st.lists(dynamic_schedulers, min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_merged_pass_bitwise_equals_per_cell(self, platform, work,
                                                 factories, seed):
        cells = [
            DynamicCell(
                platform=platform,
                scheduler=factory(0.0),
                total_work=work,
                error=0.0,
                seeds=(seed, seed + 1),
            )
            for factory in factories
        ]
        merged = simulate_dynamic_cells(cells)
        solo = [simulate_dynamic_cells([cell])[0] for cell in cells]
        for m, s in zip(merged, solo):
            assert np.array_equal(m, s)

    @settings(deadline=None, max_examples=25)
    @given(
        platform=platforms,
        work=workloads,
        factory=dynamic_schedulers,
        error=st.floats(min_value=0.0, max_value=0.2, **finite),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_arena_reuse_is_pure(self, platform, work, factory, error, seed):
        # The sweep runner funnels every merged pass through one grow-only
        # arena; stale state leaking between takes would poison later
        # sweeps.  A reused arena must reproduce a fresh run bit for bit.
        cells = [
            DynamicCell(
                platform=platform,
                scheduler=factory(error),
                total_work=work,
                error=error,
                seeds=(seed, seed + 1),
            )
        ]
        arena = BatchArena()
        fresh = simulate_dynamic_cells(cells, arena=arena)
        reused = simulate_dynamic_cells(cells, arena=arena)
        unshared = simulate_dynamic_cells(cells)
        assert np.array_equal(fresh[0], reused[0])
        assert np.array_equal(fresh[0], unshared[0])

    @settings(deadline=None, max_examples=15)
    @given(
        large=homogeneous_platforms(min_workers=6, max_workers=12),
        small=homogeneous_platforms(max_workers=5),
        work=workloads,
        factory=dynamic_schedulers,
        error=st.floats(min_value=0.0, max_value=0.2, **finite),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_arena_reuse_after_larger_call_is_pure(self, large, small, work,
                                                   factory, error, seed):
        # A larger call (more rows, more workers, crash faults) grows
        # every buffer; a smaller call through the same arena then takes
        # prefixes of them.  Each view must be C-contiguous — the engine
        # indexes (row, worker) pairs through flat aliases — and the small
        # call must equal a fresh arena's bit for bit.
        arena = _RecordingArena()
        big = [
            DynamicCell(
                platform=large,
                scheduler=factory(error),
                total_work=work,
                error=error,
                seeds=tuple(range(seed, seed + 6)),
                faults=make_fault_model("crash:p=0.5,tmax=100"),
            )
        ]
        cells = [
            DynamicCell(
                platform=small,
                scheduler=factory(error),
                total_work=work,
                error=error,
                seeds=(seed, seed + 1),
            )
        ]
        simulate_dynamic_cells(big, arena=arena)
        reused = simulate_dynamic_cells(cells, arena=arena)
        fresh = simulate_dynamic_cells(cells, arena=BatchArena())
        assert np.array_equal(reused[0], fresh[0])
        assert arena.views
        assert all(view.flags.c_contiguous for view in arena.views)


class TestBatchedFaultProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        platform=crash_platforms,
        work=workloads,
        factory=dynamic_schedulers,
        at=st.floats(min_value=1.0, max_value=200.0, **finite),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_work_conservation_under_faults(self, platform, work, factory,
                                            at, seed):
        """A crashed worker's lost chunks are re-dispatched to survivors —
        no work vanishes — and the lockstep engine reproduces the scalar
        fault trajectory bitwise at error 0."""
        scheduler = factory(0.0)
        faults = make_fault_model(f"crash:worker=0,at={at!r}")
        model = make_error_model("normal", 0.0)
        result = simulate_fast(
            platform, work, scheduler, model, seed=seed, faults=faults
        )
        lost = sum(r.size for r in result.records if r.lost)
        # Dynamic schedulers observe every loss and re-cover it from the
        # surviving workers: delivered work conserves the full workload.
        assert result.delivered_work == pytest.approx(work)
        assert result.work_lost == pytest.approx(lost)
        batch = dynamic_cell(
            platform, scheduler, work, 0.0, [seed], faults=faults
        )
        assert batch[0] == result.makespan


class TestStatisticalConsistency:
    def test_mean_makespan_matches_at_large_error(self):
        # At error = 0.3 truncation resampling interleaves differently
        # between the engines, so individual seeds may diverge — but the
        # paired means over many seeds must agree tightly.
        platform = homogeneous_platform(
            8, S=1.0, bandwidth_factor=1.8, cLat=0.2, nLat=0.1
        )
        work, error = 1000.0, 0.3
        seeds = list(range(200))
        for scheduler in (Factoring(), RUMR(known_error=error)):
            scalar = np.array(
                [scalar_makespan(platform, work, scheduler, error, s) for s in seeds]
            )
            batch = dynamic_cell(platform, scheduler, work, error, seeds)
            assert batch.mean() == pytest.approx(scalar.mean(), rel=2e-3)
            assert np.mean(scalar == batch) > 0.5
