"""Property-based tests of the batch/scalar engine equivalence contract.

The batch engine promises (see ``repro.sim.batch``): exact equality with
the scalar engine at zero error, positive finite makespans always, and
monotonicity in total work for a fixed plan shape.  Hypothesis drives
these over arbitrary static plans — both registry schedulers and ad-hoc
dispatch sequences that no registry algorithm would emit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import UMR, MultiInstallment, OneRound
from repro.core.base import Dispatch, Scheduler, StaticPlanSource
from repro.core.chunks import ChunkPlan, PlannedChunk
from repro.errors import NoError, make_error_model
from repro.sim.batch import compile_static_plan
from repro.sim.fastsim import simulate_fast
from tests.cells import static_cell
from tests.properties.strategies import finite, homogeneous_platforms, workloads as make_workloads

pytestmark = pytest.mark.property

platforms = homogeneous_platforms(max_workers=12)

workloads = make_workloads(max_work=5000.0)

static_schedulers = st.sampled_from([UMR, OneRound]) | st.integers(
    min_value=1, max_value=4
).map(lambda m: lambda: MultiInstallment(m))


def arbitrary_plans(num_workers: int):
    """Ad-hoc static plans: any sequence of (worker, size) chunks."""
    chunk = st.tuples(
        st.integers(min_value=0, max_value=num_workers - 1),
        st.floats(min_value=0.01, max_value=100.0, **finite),
    )
    return st.lists(chunk, min_size=1, max_size=40).map(
        lambda pairs: ChunkPlan(
            PlannedChunk(worker=w, size=s, round_index=0) for w, s in pairs
        )
    )


class _PlanScheduler(Scheduler):
    """Replay a fixed ChunkPlan through the scalar engine."""

    name = "plan-replay"
    is_static = True

    def __init__(self, plan: ChunkPlan):
        self._plan = plan

    def static_plan(self, platform, total_work):
        return self._plan

    def create_source(self, platform, total_work):
        return StaticPlanSource(
            Dispatch(worker=c.worker, size=c.size) for c in self._plan
        )


class TestBatchScalarEquivalence:
    @given(platform=platforms, work=workloads, factory=static_schedulers)
    def test_exact_at_zero_error(self, platform, work, factory):
        scheduler = factory()
        plan = scheduler.static_plan(platform, work)
        scalar = simulate_fast(platform, work, scheduler, NoError(), seed=0)
        batch = static_cell(platform, plan, 0.0, [0, 1, 2])
        assert batch.shape == (3,)
        assert np.all(batch == scalar.makespan)

    @given(
        platform=platforms,
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_arbitrary_plan_exact_at_zero_error(self, platform, data, seed):
        plan = data.draw(arbitrary_plans(platform.N))
        scheduler = _PlanScheduler(plan)
        work = plan.total_work
        scalar = simulate_fast(platform, work, scheduler, NoError(), seed=seed)
        batch = static_cell(platform, plan, 0.0, [seed])
        assert batch[0] == scalar.makespan

    @given(
        platform=platforms,
        data=st.data(),
        error=st.floats(min_value=0.01, max_value=0.25, **finite),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_arbitrary_plan_matches_scalar_under_error(
        self, platform, data, error, seed
    ):
        # Bitwise equality holds whenever no truncation resample fires —
        # overwhelmingly likely at these magnitudes — so a loose relative
        # bound covering the rare resampled case never trips.
        plan = data.draw(arbitrary_plans(platform.N))
        scheduler = _PlanScheduler(plan)
        model = make_error_model("normal", error)
        scalar = simulate_fast(
            platform, plan.total_work, scheduler, model, seed=seed
        )
        batch = static_cell(platform, plan, error, [seed])
        assert batch[0] == pytest.approx(scalar.makespan, rel=0.2)


class TestBatchInvariants:
    @given(
        platform=platforms,
        data=st.data(),
        error=st.floats(min_value=0.0, max_value=0.5, **finite),
    )
    def test_makespans_positive_finite(self, platform, data, error):
        plan = data.draw(arbitrary_plans(platform.N))
        out = static_cell(platform, plan, error, [0, 1, 2, 3])
        assert out.shape == (4,)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0.0)

    @given(
        platform=platforms,
        data=st.data(),
        scale=st.floats(min_value=1.0, max_value=10.0, **finite),
    )
    def test_monotone_in_work(self, platform, data, scale):
        # Scaling every chunk up by a common factor cannot shrink the
        # makespan (link times, compute times and queueing all grow).
        plan = data.draw(arbitrary_plans(platform.N))
        bigger = ChunkPlan(
            PlannedChunk(worker=c.worker, size=c.size * scale, round_index=0)
            for c in plan
        )
        base = static_cell(platform, plan, 0.0, [0])
        grown = static_cell(platform, bigger, 0.0, [0])
        assert grown[0] >= base[0]

    @given(platform=platforms, data=st.data())
    def test_compiled_plan_equals_chunk_plan(self, platform, data):
        plan = data.draw(arbitrary_plans(platform.N))
        compiled = compile_static_plan(platform, plan)
        a = static_cell(platform, plan, 0.0, [0])
        b = static_cell(platform, compiled, 0.0, [0])
        assert a[0] == b[0]
