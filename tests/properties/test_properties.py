"""Property-based tests (hypothesis) on core invariants.

Strategies come from :mod:`tests.properties.strategies` and draw
platforms and workloads from ranges that cover (and exceed) the paper's
Table 1, including degenerate corners: zero latencies, tiny workloads,
single workers, heterogeneous rates, infeasible bandwidths.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import RUMR, UMR, Factoring, FixedSizeChunking, MultiInstallment
from repro.core.umr import solve_umr
from repro.errors import NormalErrorModel, NoError, UniformErrorModel
from repro.sim import simulate, validate_schedule
from repro.sim.analytic import analytic_makespan
from tests.properties.strategies import (
    finite,
    hetero_platforms,
    homogeneous_platforms,
    workloads as make_workloads,
)

pytestmark = pytest.mark.property

homog_platforms = homogeneous_platforms()
workloads = make_workloads()


class TestUMRProperties:
    @given(platform=homog_platforms, work=workloads)
    def test_plan_conserves_work(self, platform, work):
        plan = solve_umr(platform, work)
        assert plan.total_work == pytest.approx(work, rel=1e-7)

    @given(platform=homog_platforms, work=workloads)
    def test_chunks_nonnegative(self, platform, work):
        plan = solve_umr(platform, work)
        assert min(min(row) for row in plan.chunk_sizes) >= 0.0

    @given(platform=homog_platforms, work=workloads)
    def test_chunks_nondecreasing(self, platform, work):
        # UMR as published: round sizes never decrease (the solver rejects
        # decreasing-chunk solutions and falls back to fewer rounds).
        plan = solve_umr(platform, work)
        if plan.num_rounds >= 2:
            heads = [row[0] for row in plan.chunk_sizes[:-1]]
            tol = 1e-7 * (1 + max(abs(h) for h in heads))
            assert all(b >= a - tol for a, b in zip(heads, heads[1:]))

    @given(platform=homog_platforms, work=workloads)
    def test_allow_decreasing_never_worse(self, platform, work):
        # Lifting the restriction can only improve the model objective.
        restricted = solve_umr(platform, work)
        free = solve_umr(platform, work, allow_decreasing=True)
        assert free.predicted_makespan <= restricted.predicted_makespan * (1 + 1e-9)

    @given(platform=hetero_platforms, work=workloads)
    def test_heterogeneous_plans_valid(self, platform, work):
        plan = solve_umr(platform, work)
        assert plan.total_work == pytest.approx(work, rel=1e-7)
        assert min(min(row) for row in plan.chunk_sizes) >= 0.0

    @given(platform=homog_platforms, work=workloads)
    def test_predicted_equals_analytic_replay(self, platform, work):
        plan = solve_umr(platform, work)
        replayed = analytic_makespan(platform, plan.to_chunk_plan())
        # The replay can only be <= the model prediction if rounding freed
        # idle slack, and equal when the no-idle construction is exact.
        assert replayed <= plan.predicted_makespan * (1 + 1e-7)


class TestScheduleInvariants:
    @given(
        platform=homog_platforms,
        work=workloads,
        error=st.floats(min_value=0.0, max_value=0.8, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_rumr_schedules_always_valid(self, platform, work, error, seed):
        model = NormalErrorModel(error) if error else NoError()
        result = simulate(platform, work, RUMR(known_error=error), model, seed=seed)
        validate_schedule(result, rel_tol=1e-7)

    @given(
        platform=hetero_platforms,
        work=workloads,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_factoring_valid_on_heterogeneous(self, platform, work, seed):
        result = simulate(platform, work, Factoring(), NormalErrorModel(0.3), seed=seed)
        validate_schedule(result, rel_tol=1e-7)

    @given(platform=homog_platforms, work=workloads)
    @settings(max_examples=30)
    def test_mi_schedules_valid(self, platform, work):
        result = simulate(platform, work, MultiInstallment(3), NoError())
        validate_schedule(result, rel_tol=1e-7)

    @given(
        platform=homog_platforms,
        work=workloads,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_fsc_valid(self, platform, work, seed):
        result = simulate(
            platform, work, FixedSizeChunking(known_error=0.2), NormalErrorModel(0.2), seed=seed
        )
        validate_schedule(result, rel_tol=1e-7)


class TestEngineEquivalenceProperty:
    @given(
        platform=homog_platforms,
        work=st.floats(min_value=10.0, max_value=2000.0, **finite),
        error=st.floats(min_value=0.0, max_value=0.5, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25)
    def test_fast_equals_des(self, platform, work, error, seed):
        model = NormalErrorModel(error) if error else NoError()
        sched = RUMR(known_error=error)
        fast = simulate(platform, work, sched, model, seed=seed, engine="fast")
        des = simulate(platform, work, sched, model, seed=seed, engine="des")
        assert fast.makespan == des.makespan
        assert [r.worker for r in fast.records] == [r.worker for r in des.records]

    @given(
        platform=hetero_platforms,
        work=st.floats(min_value=10.0, max_value=2000.0, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15)
    def test_fast_equals_des_extension_schedulers(self, platform, work, seed):
        from repro.core import AdaptiveRUMR, WeightedFactoring

        model = NormalErrorModel(0.3)
        for sched_factory in (AdaptiveRUMR, WeightedFactoring):
            fast = simulate(
                platform, work, sched_factory(), model, seed=seed, engine="fast"
            )
            des = simulate(
                platform, work, sched_factory(), model, seed=seed, engine="des"
            )
            assert fast.makespan == des.makespan
            assert fast.records == des.records


class TestOutputEngineProperty:
    @given(
        platform=homog_platforms,
        work=st.floats(min_value=10.0, max_value=1000.0, **finite),
        error=st.floats(min_value=0.0, max_value=0.4, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15)
    def test_zero_output_ratio_equals_standard_engines(self, platform, work, error, seed):
        from repro.sim.output import simulate_with_output

        model = NormalErrorModel(error) if error else NoError()
        scalar = simulate(platform, work, RUMR(known_error=error), model, seed=seed)
        model2 = NormalErrorModel(error) if error else NoError()
        output = simulate_with_output(
            platform, work, RUMR(known_error=error), model2, output_ratio=0.0, seed=seed
        )
        assert output.makespan == scalar.makespan
        assert output.returns == ()

    @given(
        platform=homog_platforms,
        work=st.floats(min_value=10.0, max_value=500.0, **finite),
        ratio=st.floats(min_value=0.0, max_value=1.0, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15)
    def test_output_conserves_work_and_orders_returns(self, platform, work, ratio, seed):
        from repro.sim.output import simulate_with_output

        result = simulate_with_output(
            platform, work, Factoring(), NormalErrorModel(0.2),
            output_ratio=ratio, seed=seed,
        )
        assert sum(r.size for r in result.records) == pytest.approx(work, rel=1e-7)
        ends = {r.index: r.comp_end for r in result.records}
        for ret in result.returns:
            assert ret.link_start >= ends[ret.chunk_index] - 1e-9
        assert result.makespan >= result.compute_makespan - 1e-12


class TestBatchSimulatorProperty:
    @given(
        platform=homog_platforms,
        work=st.floats(min_value=10.0, max_value=2000.0, **finite),
        seeds=st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=4),
    )
    @settings(max_examples=25)
    def test_batch_equals_scalar_at_zero_error(self, platform, work, seeds):
        from tests.cells import static_cell

        plan = solve_umr(platform, work).to_chunk_plan()
        scalar = simulate(platform, work, UMR(), NoError()).makespan
        batch = static_cell(platform, plan, error=0.0, seeds=seeds)
        assert all(b == scalar for b in batch)

    @given(
        platform=homog_platforms,
        work=st.floats(min_value=10.0, max_value=2000.0, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20)
    def test_batch_equals_scalar_at_tiny_error(self, platform, work, seed):
        # At magnitude 0.05 the truncation floor (0.01) is ~19 sigma away:
        # no resampling ever fires, so the block draw consumes the streams
        # identically and results are bitwise equal.
        from tests.cells import static_cell

        plan = solve_umr(platform, work).to_chunk_plan()
        scalar = simulate(platform, work, UMR(), NormalErrorModel(0.05), seed=seed)
        batch = static_cell(platform, plan, error=0.05, seeds=[seed])
        assert batch[0] == scalar.makespan


class TestDeterminism:
    @given(
        platform=homog_platforms,
        work=workloads,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25)
    def test_same_seed_same_trajectory(self, platform, work, seed):
        a = simulate(platform, work, Factoring(), UniformErrorModel(0.3), seed=seed)
        b = simulate(platform, work, Factoring(), UniformErrorModel(0.3), seed=seed)
        assert a.makespan == b.makespan
        assert a.records == b.records


class TestErrorModelProperties:
    @given(
        magnitude=st.floats(min_value=0.0, max_value=1.0, **finite),
        predicted=st.floats(min_value=0.0, max_value=1e6, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_perturbed_durations_never_negative(self, magnitude, predicted, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        for model in (NormalErrorModel(magnitude), UniformErrorModel(magnitude)):
            assert model.perturb(predicted, rng) >= 0.0

    @given(
        magnitude=st.floats(min_value=0.01, max_value=1.0, **finite),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ratio_above_floor(self, magnitude, seed):
        import numpy as np

        from repro.errors.models import MIN_RATIO

        rng = np.random.default_rng(seed)
        model = NormalErrorModel(magnitude)
        assert all(model.ratio(rng) >= MIN_RATIO for _ in range(50))

    @given(
        magnitude=st.floats(min_value=0.0, max_value=2.0, **finite),
        count=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # At magnitude 2.0 about 30 % of raw draws fall below the floor.
    @example(magnitude=2.0, count=300, seed=0)
    def test_ratios_equal_scalar_draws(self, magnitude, count, seed):
        # The batch engines' factor streams rest on this contract: a
        # block draw is the scalar sequence and ends at the same position.
        import numpy as np

        model = NormalErrorModel(magnitude)
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        block = model.ratios(block_rng, count)
        assert np.array_equal(block, [model.ratio(scalar_rng) for _ in range(count)])
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestWorkConservation:
    @given(
        platform=homog_platforms,
        work=workloads,
        error=st.floats(min_value=0.0, max_value=2.0, **finite),
    )
    @settings(max_examples=40)
    def test_rumr_split_partitions_workload(self, platform, work, error):
        w1, w2 = RUMR(known_error=error).split(platform, work)
        assert w1 >= 0 and w2 >= 0
        assert w1 + w2 == pytest.approx(work, rel=1e-12)

    @given(
        platform=homog_platforms,
        work=workloads,
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_dispatched_equals_requested(self, platform, work, seed):
        for sched in (UMR(), Factoring(), RUMR(known_error=0.3)):
            result = simulate(platform, work, sched, NormalErrorModel(0.2), seed=seed)
            assert result.dispatched_work == pytest.approx(work, rel=1e-7)
