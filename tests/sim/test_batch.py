"""Tests for the vectorized batch simulator."""

import tracemalloc

import numpy as np
import pytest

from repro.core import UMR, MultiInstallment
from repro.core.umr import solve_umr
from repro.errors import NoError, NormalErrorModel
from repro.errors.faults import make_fault_model
from repro.obs import Tracer
from repro.platform import homogeneous_platform
from repro.sim import simulate
from repro.sim.batch import StaticCell, compile_static_plan, simulate_static_cells
from tests.cells import static_cell

W = 1000.0


@pytest.fixture(scope="module")
def setup():
    p = homogeneous_platform(12, S=1.0, bandwidth_factor=1.6, cLat=0.3, nLat=0.1)
    plan = solve_umr(p, W).to_chunk_plan()
    return p, plan


class TestExactAgreement:
    def test_zero_error_matches_scalar_engine_exactly(self, setup):
        p, plan = setup
        scalar = simulate(p, W, UMR(), NoError()).makespan
        batch = static_cell(p, plan, error=0.0, seeds=[0, 1, 2])
        assert np.all(batch == scalar)

    def test_zero_error_matches_mi(self, setup):
        p, _ = setup
        mi = MultiInstallment(3)
        plan = mi.schedule(p, W).to_chunk_plan()
        scalar = simulate(p, W, mi, NoError()).makespan
        batch = static_cell(p, plan, error=0.0, seeds=[7])
        assert batch[0] == pytest.approx(scalar, rel=1e-12)

    def test_empty_plan(self, setup):
        p, _ = setup
        from repro.core.chunks import ChunkPlan

        assert np.all(static_cell(p, ChunkPlan([]), 0.2, [1, 2]) == 0.0)


class TestStatisticalAgreement:
    def test_means_match_scalar_engine(self, setup):
        # Same seeds, same spawned streams, same filtered factor sequence:
        # the distributions agree because every row agrees bitwise.
        p, plan = setup
        seeds = list(range(150))
        batch = static_cell(p, plan, error=0.3, seeds=seeds)
        scalar = np.array(
            [simulate(p, W, UMR(), NormalErrorModel(0.3), seed=s).makespan for s in seeds]
        )
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.01)
        assert batch.std() == pytest.approx(scalar.std(), rel=0.25)
        assert np.array_equal(batch, scalar)

    def test_bitwise_match_when_no_resampling_occurs(self, setup):
        # At small magnitude the truncation floor never fires; at 0.5 it
        # does, and the filtered block draw still consumes the stream
        # exactly like the scalar loop.
        p, plan = setup
        seeds = [11, 12, 13]
        for error in (0.05, 0.5):
            batch = static_cell(p, plan, error=error, seeds=seeds)
            for i, s in enumerate(seeds):
                scalar = simulate(p, W, UMR(), NormalErrorModel(error), seed=s).makespan
                assert batch[i] == scalar, error

    def test_divide_mode(self, setup):
        p, plan = setup
        seeds = [3, 4]
        batch = static_cell(p, plan, error=0.05, seeds=seeds, mode="divide")
        for i, s in enumerate(seeds):
            scalar = simulate(
                p, W, UMR(), NormalErrorModel(0.05, mode="divide"), seed=s
            ).makespan
            assert batch[i] == scalar

    def test_unknown_mode_rejected(self, setup):
        p, plan = setup
        with pytest.raises(ValueError):
            static_cell(p, plan, 0.1, [1], mode="sideways")


class TestThroughput:
    def test_batch_is_much_faster_than_scalar(self, setup):
        import time

        p, plan = setup
        seeds = list(range(400))
        t0 = time.perf_counter()
        static_cell(p, plan, error=0.3, seeds=seeds)
        batch_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for s in seeds[:20]:
            simulate(p, W, UMR(), NormalErrorModel(0.3), seed=s)
        scalar_time = (time.perf_counter() - t0) / 20 * len(seeds)
        assert batch_time < scalar_time / 3  # conservative; typically 30x+


# ---------------------------------------------------------------------------
# Plan-length classes: a skewed stack against one-cell calls.
#
# A zero-latency UMR plan of 500 chunks stacked with MI-1..MI-4 plans of
# 10..80 chunks on 10- and 20-worker platforms: one long plan beside many
# short ones, the shape plan-length classes are for.
# ---------------------------------------------------------------------------

SKEW_SEEDS = tuple(range(60, 66))

SKEW_FAULTS = tuple(
    make_fault_model(spec)
    for spec in (
        "crash:p=0.5,tmax=100",
        "pause:p=0.6,tmax=100,dur=20",
        "slow:p=0.6,tmax=100,factor=2.5",
        "spike:p=0.25,delay=4",
    )
)


def skewed_cells(error, seeds=SKEW_SEEDS, faults=(None,)):
    """The skewed stack; cell ``i`` gets ``faults[i % len(faults)]``."""
    flat = homogeneous_platform(10, S=1.0, bandwidth_factor=1.4, cLat=0.0, nLat=0.0)
    specs = [(flat, UMR())] + [
        (homogeneous_platform(n, S=1.0, bandwidth_factor=1.4, cLat=0.2, nLat=0.1),
         MultiInstallment(k))
        for n in (10, 20)
        for k in (1, 2, 3, 4)
    ]
    cells = []
    for i, (platform, scheduler) in enumerate(specs):
        plan = compile_static_plan(platform, scheduler.static_plan(platform, W))
        cells.append(
            StaticCell(platform, plan, error, tuple(seeds), faults[i % len(faults)])
        )
    assert cells[0].plan.num_chunks >= 400
    assert max(c.plan.num_chunks for c in cells[1:]) <= 80
    return cells


def assert_matches_one_cell_calls(cells):
    stacked = simulate_static_cells(cells)
    alone = [simulate_static_cells([c])[0] for c in cells]
    for a, b in zip(stacked, alone):
        assert np.array_equal(a, b)
    return stacked


class TestPlanLengthClasses:
    @pytest.mark.parametrize("error", [0.0, 0.3])
    def test_stack_matches_one_cell_calls(self, error):
        assert_matches_one_cell_calls(skewed_cells(error))

    @pytest.mark.parametrize("error", [0.0, 0.3])
    def test_traced_rows_match_one_cell_calls(self, error):
        cells = skewed_cells(error)
        stacked = [[None, Tracer(), None, None, None, Tracer()] for _ in cells]
        simulate_static_cells(cells, tracers=stacked)
        for cell, cell_tracers in zip(cells, stacked):
            alone = [None, Tracer(), None, None, None, Tracer()]
            simulate_static_cells([cell], tracers=[alone])
            for a, b in zip(cell_tracers, alone):
                if a is None:
                    continue
                assert len(a) > 0
                assert a.canonical() == b.canonical()

    def test_stack_allocates_no_more_than_its_parts(self):
        # Peak allocation of the whole stack against the long plan and
        # the short plans stacked on their own.  One stack padded to the
        # long plan costs over three times the sum.
        cells = skewed_cells(0.3, seeds=range(40))

        def alloc_peak(part):
            simulate_static_cells(part)  # grow the factor streams first
            tracemalloc.start()
            try:
                simulate_static_cells(part)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        budget = alloc_peak(cells[:1]) + alloc_peak(cells[1:])
        assert alloc_peak(cells) <= 1.5 * budget


@pytest.mark.parametrize("error", [0.0, 0.3])
def test_batched_fault_plan_length_classes_match_one_cell_calls(error):
    cells = skewed_cells(error, faults=SKEW_FAULTS)
    faulty = assert_matches_one_cell_calls(cells)
    # Every fault kind fires somewhere in the stack.
    clean = simulate_static_cells(skewed_cells(error))
    changed = {
        type(c.faults).__name__
        for c, a, b in zip(cells, faulty, clean)
        if not np.array_equal(a, b)
    }
    assert changed == {type(f).__name__ for f in SKEW_FAULTS}
