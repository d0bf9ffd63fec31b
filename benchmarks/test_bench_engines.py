"""Micro-benchmarks: simulation-engine throughput.

The fast engine carries the full experiment harness (hundreds of
thousands of runs per sweep); the DES engine is the cross-validated
reference.  These benchmarks document their per-run costs and the ratio
between them.
"""

import pytest

from repro.core import RUMR, Factoring, UMR
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate_des, simulate_fast

W = 1000.0


@pytest.fixture
def platform():
    return homogeneous_platform(20, S=1.0, bandwidth_factor=1.8, cLat=0.3, nLat=0.1)


@pytest.fixture
def model():
    return NormalErrorModel(0.3)


def test_bench_fast_engine_umr(benchmark, platform, model):
    result = benchmark(simulate_fast, platform, W, UMR(), model, 1)
    assert result.makespan > 0


def test_bench_fast_engine_rumr(benchmark, platform, model):
    result = benchmark(simulate_fast, platform, W, RUMR(known_error=0.3), model, 1)
    assert result.makespan > 0


def test_bench_fast_engine_factoring(benchmark, platform, model):
    result = benchmark(simulate_fast, platform, W, Factoring(), model, 1)
    assert result.makespan > 0


def test_bench_batch_engine_umr_per_run(benchmark, platform, model):
    # Amortized per-run cost of the vectorized batch simulator: simulate
    # 500 repetitions per call; compare Mean/500 against the scalar rows.
    from repro.core.umr import solve_umr
    from repro.sim.batch import StaticCell, compile_static_plan, simulate_static_cells

    plan = solve_umr(platform, W).to_chunk_plan()
    seeds = tuple(range(500))

    def run():
        cell = StaticCell(platform, compile_static_plan(platform, plan), 0.3, seeds)
        return simulate_static_cells([cell])[0]

    spans = benchmark(run)
    assert spans.shape == (500,)
    assert (spans > 0).all()


def test_bench_fast_engine_umr_makespan_only(benchmark, platform, model):
    # The sweep harness's scalar mode: no DispatchRecord allocation.
    result = benchmark(
        simulate_fast, platform, W, UMR(), model, 1, collect_records=False
    )
    assert result.makespan > 0
    assert result.records == ()


def test_bench_fast_engine_rumr_makespan_only(benchmark, platform, model):
    result = benchmark(
        simulate_fast, platform, W, RUMR(known_error=0.3), model, 1,
        collect_records=False,
    )
    assert result.makespan > 0
    assert result.records == ()


def test_bench_compiled_batch_umr_per_run(benchmark, platform):
    # The sweep fast path proper: plan compiled once, then re-simulated —
    # this is what each (platform, error) cell costs after compilation.
    from repro.core.umr import solve_umr
    from repro.sim.batch import StaticCell, compile_static_plan, simulate_static_cells

    compiled = compile_static_plan(platform, solve_umr(platform, W).to_chunk_plan())
    cell = StaticCell(platform, compiled, 0.3, tuple(range(500)))

    def run():
        return simulate_static_cells([cell])[0]

    spans = benchmark(run)
    assert spans.shape == (500,)
    assert (spans > 0).all()


@pytest.fixture
def sweep_grid():
    from repro.experiments.config import smoke_grid

    return smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.4, 1.8), cLats=(0.0, 0.2), nLats=(0.1,),
        errors=(0.0, 0.2, 0.4), repetitions=3,
    )


def test_bench_sweep_static_scalar(benchmark, sweep_grid):
    from repro.experiments.runner import run_sweep

    results = benchmark(
        run_sweep, sweep_grid, algorithms=("UMR", "MI-2", "MI-4"),
        batch_static=False,
    )
    assert (results.makespans["UMR"] > 0).all()


def test_bench_sweep_static_batched(benchmark, sweep_grid):
    from repro.experiments.runner import run_sweep

    results = benchmark(
        run_sweep, sweep_grid, algorithms=("UMR", "MI-2", "MI-4"),
        batch_static=True,
    )
    assert (results.makespans["UMR"] > 0).all()


def test_bench_des_engine_umr(benchmark, platform, model):
    result = benchmark(simulate_des, platform, W, UMR(), model, 1)
    assert result.makespan > 0


def test_bench_des_engine_rumr(benchmark, platform, model):
    result = benchmark(simulate_des, platform, W, RUMR(known_error=0.3), model, 1)
    assert result.makespan > 0
