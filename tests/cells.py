"""One-cell grids for the batch engines.

The batch engines take whole grids of cells; most tests exercise a
single (platform, plan or scheduler, error) cell.  These helpers build
that one-cell grid and return its makespan array, one entry per seed.
"""

from repro.sim.batch import (
    CompiledStaticPlan,
    StaticCell,
    compile_static_plan,
    simulate_static_cells,
)
from repro.sim.dynbatch import DynamicCell, simulate_dynamic_cells


def static_cell(platform, plan, error, seeds, mode="multiply", faults=None,
                tracers=None):
    """Makespans of one static plan (or its compiled lowering) per seed."""
    if not isinstance(plan, CompiledStaticPlan):
        plan = compile_static_plan(platform, plan)
    cell = StaticCell(platform, plan, error, tuple(int(s) for s in seeds), faults)
    return simulate_static_cells(
        [cell], mode=mode, tracers=None if tracers is None else [tracers]
    )[0]


def dynamic_cell(platform, scheduler, work, error, seeds, mode="multiply",
                 faults=None, tracers=None):
    """Makespans of one batch-dynamic scheduler per seed."""
    cell = DynamicCell(
        platform, scheduler, work, error, tuple(int(s) for s in seeds), faults
    )
    return simulate_dynamic_cells(
        [cell], mode=mode, tracers=None if tracers is None else [tracers]
    )[0]
