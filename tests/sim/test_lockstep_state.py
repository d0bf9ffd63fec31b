"""The lockstep engine's kept state: worker words, the event log, the arena.

Worker sets (idle, crashed, plan availability) are bit words, one uint64
per 64 workers, and the events kernels observe (losses, completion
notes) sit in one log of outstanding events.  These tests pin both
against the scalar engine where they are most likely to go wrong: on
platforms wider than one word, and on one call mixing every kind of
event, including losses that tie on exit time.
"""

import collections

import numpy as np
import pytest

from repro.core.registry import available_schedulers, make_scheduler
from repro.errors import NormalErrorModel
from repro.errors.faults import make_fault_model
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import dynbatch
from repro.sim.dynbatch import BatchArena, DynamicCell, simulate_dynamic_cells
from repro.sim.fastsim import simulate_fast

DYNAMIC = [n for n in available_schedulers() if not make_scheduler(n).is_static]


def scalar_runs(cell):
    """The scalar engine's result for every seed of ``cell``."""
    return [
        simulate_fast(
            cell.platform, cell.total_work, cell.scheduler,
            NormalErrorModel(magnitude=cell.error), seed=s, faults=cell.faults,
        )
        for s in cell.seeds
    ]


def assert_bitwise(cells, arena=None):
    """One lockstep call over ``cells`` equals the scalar engine bit for bit."""
    batch = simulate_dynamic_cells(cells, arena=arena)
    runs = []
    for cell, got in zip(cells, batch):
        results = scalar_runs(cell)
        want = np.array([r.makespan for r in results])
        assert np.array_equal(got, want), (cell.scheduler.name, cell.faults)
        runs.append(results)
    return runs


@pytest.fixture(scope="module")
def wide_platform():
    """70 heterogeneous workers: worker sets span two words."""
    return PlatformSpec(
        tuple(
            WorkerSpec(
                S=1.0 + 0.25 * (i % 5), B=20.0 + (i % 7), cLat=0.05 * (i % 3),
                nLat=0.02, tLat=0.01 * (i % 2),
            )
            for i in range(70)
        )
    )


class TestWidePlatforms:
    def test_every_dynamic_name_clean_and_crashing(self, wide_platform):
        crash = make_fault_model("crash:p=0.5,tmax=40")
        narrow = homogeneous_platform(10, S=1.0, bandwidth_factor=1.4, cLat=0.1, nLat=0.05)
        cells = [
            DynamicCell(platform, make_scheduler(name, 0.2), 2000.0, 0.2, (5, 6), faults)
            for name in DYNAMIC
            for faults in (None, crash)
            # A narrow cell in the same call pads to 70 workers.
            for platform in (wide_platform, narrow)
        ]
        runs = assert_bitwise(cells)
        # Crashes reached the second word.
        assert any(
            r.worker >= 64 for results in runs for res in results for r in res.lost_records
        )


class TestEventOrder:
    def test_notes_losses_and_clean_rows_in_one_call(self):
        platform = homogeneous_platform(6, S=1.0, bandwidth_factor=3.0, cLat=0.2, nLat=0.05)
        # Worker 0 dies early with chunks queued on it: they are all seen
        # lost at the crash instant, so only the chunk index orders them,
        # and on these seeds the pool's float sum depends on that order.
        tie_rumr = make_fault_model("crash:worker=0,at=3")
        tie_adaptive = make_fault_model("crash:worker=0,at=5")
        random = make_fault_model("crash:p=0.5,tmax=40")
        cells = [
            DynamicCell(platform, make_scheduler(name, 0.2), 300.0, 0.2, (1, 2, 12, 13), faults)
            for name, faults in (
                ("AdaptiveRUMR", None),
                ("AdaptiveRUMR", tie_adaptive),
                ("AdaptiveRUMR", random),
                ("RUMR", tie_rumr),
                ("RUMR-plain", random),
                ("Factoring", None),
                ("Factoring", random),
                ("WeightedFactoring", tie_rumr),
            )
        ]
        runs = assert_bitwise(cells)
        for i in (1, 3):  # the tied AdaptiveRUMR and RUMR cells
            ties = [
                max(collections.Counter(r.loss_time for r in res.lost_records).values())
                for res in runs[i]
            ]
            assert max(ties) >= 2, cells[i].scheduler.name


class TestArena:
    def test_exit_time_ring_is_the_only_slot_buffer(self):
        platform = homogeneous_platform(12, S=1.0, bandwidth_factor=1.4, cLat=0.0, nLat=0.1)
        cells = [
            DynamicCell(
                platform, make_scheduler(name, 0.1), 500.0, 0.1, tuple(range(8)),
                make_fault_model("crash:p=0.5,tmax=30"),
            )
            for name in ("RUMR", "Factoring", "AdaptiveRUMR")
        ]
        arena = BatchArena()
        assert_bitwise(cells, arena=arena)
        rows, n = 8 * len(cells), platform.N
        slot_sized = {
            name for name, buf in arena._buffers.items()
            if buf.size >= rows * n * dynbatch._INITIAL_SLOTS
        }
        assert slot_sized == {"q_end"}
