"""Batch engines emit the same event streams as the scalar engine.

At ``error = 0`` the vectorized static engine and the lockstep dynamic
engine are bitwise-identical to the scalar fast engine, so their traced
event streams must match too.  Static plans carry their own phase
labels, which the scalar replay and the static batch engine both use, so
static streams match event for event, ``round_boundary`` markers
included.  The lockstep engine does not track phases yet, so dynamic
streams are compared without phase labels and round markers.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    RUMR,
    UMR,
    EqualSplit,
    Factoring,
    MultiInstallment,
    OneRound,
    WeightedFactoring,
)
from repro.errors import NoError, NormalErrorModel
from repro.obs import Tracer, first_divergence
from repro.platform import homogeneous_platform
from repro.sim import simulate_fast
from repro.sim.batch import StaticCell, compile_static_plan, simulate_static_cells
from repro.sim.dynbatch import DynamicCell, simulate_dynamic_cells
from tests.cells import dynamic_cell, static_cell

W = 500.0


@pytest.fixture
def platform():
    return homogeneous_platform(5, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


def strip_phases(events):
    """Drop phase labels and round markers, which lockstep rows lack."""
    return tuple(
        dataclasses.replace(e, phase="")
        for e in events
        if e.kind != "round_boundary"
    )


def assert_streams_match(batch_tracer, scalar_tracer, phases=True):
    batch_events = batch_tracer.canonical()
    scalar_events = scalar_tracer.canonical()
    if not phases:
        batch_events = strip_phases(batch_events)
        scalar_events = strip_phases(scalar_events)
    divergence = first_divergence(batch_events, scalar_events,
                                  labels=("batch", "scalar"))
    assert divergence is None, divergence.describe()


class TestStaticBatchTraces:
    @pytest.mark.parametrize(
        "scheduler",
        [UMR(), MultiInstallment(3), OneRound(), EqualSplit()],
        ids=["UMR", "MI-3", "OneRound", "EqualSplit"],
    )
    def test_matches_scalar_at_zero_error(self, platform, scheduler):
        plan = scheduler.static_plan(platform, W)
        scalar_tracer = Tracer()
        scalar = simulate_fast(platform, W, scheduler, NoError(), seed=0,
                               tracer=scalar_tracer)
        batch_tracer = Tracer()
        spans = static_cell(
            platform, plan, 0.0, [0], tracers=[batch_tracer]
        )
        assert spans[0] == scalar.makespan
        assert_streams_match(batch_tracer, scalar_tracer)

    def test_per_seed_tracers_are_independent(self, platform):
        plan = UMR().static_plan(platform, W)
        tracers = [Tracer(), None, Tracer()]
        static_cell(platform, plan, 0.0, [0, 1, 2], tracers=tracers)
        # error=0 rows are identical, so both traced rows carry the same
        # stream; the None slot must simply be skipped.
        assert len(tracers[0]) == len(tracers[2]) > 0
        assert tracers[0].canonical() == tracers[2].canonical()

    def test_round_boundaries_come_from_plan(self, platform):
        plan = UMR().static_plan(platform, W)
        tracer = Tracer()
        static_cell(platform, plan, 0.0, [0], tracers=[tracer])
        rounds = {c.round_index for c in plan}
        assert len(tracer.of_kind("round_boundary")) == len(rounds)

    def test_grid_pass_traces_padded_rows(self, platform):
        # A multi-cell pass pads every row to the longest plan (and the
        # widest platform); each traced row must still carry exactly its
        # own plan's stream, and tracing must not perturb any makespan.
        small = homogeneous_platform(3, S=1.0, bandwidth_factor=1.2, cLat=0.1, nLat=0.2)
        specs = [
            # (platform, scheduler, error, seeds, per-seed tracers)
            (platform, UMR(), 0.05, (3, 4), [Tracer(), None]),
            (small, MultiInstallment(1), 0.0, (0, 1, 2), [None, Tracer(), None]),
            (platform, MultiInstallment(3), 0.05, (5,), None),
        ]
        cells, plans = [], []
        for plat, sched, error, seeds, _ in specs:
            plans.append(sched.static_plan(plat, W))
            cells.append(
                StaticCell(plat, compile_static_plan(plat, plans[-1]), error, seeds)
            )
        assert len({c.plan.num_chunks for c in cells}) == 3
        tracers = [tr for *_, tr in specs]
        traced = simulate_static_cells(cells, tracers=tracers)
        plain = simulate_static_cells(cells)
        assert all(np.array_equal(a, b) for a, b in zip(traced, plain))

        for (plat, sched, error, seeds, cell_tracers), plan in zip(specs, plans):
            for seed, tracer in zip(seeds, cell_tracers or ()):
                if tracer is None:
                    continue
                model = NormalErrorModel(error) if error else NoError()
                scalar_tracer = Tracer()
                simulate_fast(plat, W, sched, model, seed=seed, tracer=scalar_tracer)
                assert_streams_match(tracer, scalar_tracer)
                rounds = {c.round_index for c in plan}
                assert len(tracer.of_kind("round_boundary")) == len(rounds)


class TestDynamicBatchTraces:
    @pytest.mark.parametrize(
        "scheduler",
        [Factoring(), WeightedFactoring(), RUMR(known_error=0.0)],
        ids=["Factoring", "WeightedFactoring", "RUMR"],
    )
    def test_matches_scalar_at_zero_error(self, platform, scheduler):
        scalar_tracer = Tracer()
        scalar = simulate_fast(platform, W, scheduler, NoError(), seed=7,
                               tracer=scalar_tracer)
        batch_tracer = Tracer()
        spans = dynamic_cell(
            platform, scheduler, W, 0.0, [7], tracers=[batch_tracer]
        )
        assert spans[0] == scalar.makespan
        assert_streams_match(batch_tracer, scalar_tracer, phases=False)


class TestTracerLists:
    """Both batch engines reject a tracer list that does not fit the cells.

    Cells of 2 and 1 seeds; a list of the wrong length would hand tracers
    to the wrong rows.
    """

    @pytest.fixture(params=["static", "dynamic"])
    def run(self, request, platform):
        if request.param == "static":
            plan = compile_static_plan(platform, UMR().static_plan(platform, W))
            cells = [StaticCell(platform, plan, 0.0, seeds) for seeds in ((1, 2), (3,))]
            return lambda tracers: simulate_static_cells(cells, tracers=tracers)
        cells = [
            DynamicCell(platform, Factoring(), W, 0.0, seeds) for seeds in ((1, 2), (3,))
        ]
        return lambda tracers: simulate_dynamic_cells(cells, tracers=tracers)

    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_per_cell_list_must_match_the_seeds(self, run, extra):
        first = [Tracer() for _ in range(2 + extra)]
        with pytest.raises(ValueError, match="cell 0"):
            run([first, None])
        assert all(len(tracer) == 0 for tracer in first)

    @pytest.mark.parametrize("entries", [1, 3], ids=["short", "long"])
    def test_outer_list_must_match_the_cells(self, run, entries):
        with pytest.raises(ValueError, match="for 2 cells"):
            run([[Tracer(), Tracer()]] + [None] * (entries - 1))

    def test_fitting_lists_trace(self, run):
        second = [Tracer()]
        run([None, second])
        assert len(second[0]) > 0
