"""Guard on what one dispatched chunk costs the DES calendar.

The engine's per-chunk steps (send on a ported star, pipe tail and
delivery, in-flight loss, result return) are kernel callbacks, and the
master folds completion notes in without a calendar entry per note.
Per-chunk generator processes each cost a start entry plus a termination
entry nobody waits on, and a ``Store.get()`` per drained note costs an
entry that fires with no callbacks.  On the star run below that came to
7.49 calendar pushes per dispatched chunk (6,063 for 810 chunks).

A ``sharedbw`` link starts a watcher on every rate change.  As a
generator process each watcher cost three pushes (start, timeout,
termination), 11.28 pushes per chunk on the shared-link run below
(7,445 for 660 chunks); as a callback chain it costs two.  These tests
keep those entries from coming back.
"""

import repro.sim.engine as engine
from repro.core import RUMR, Factoring
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform


def _pushes_and_chunks(monkeypatch, make_scheduler, topology=None) -> tuple[int, int]:
    envs = []

    class CountingEnvironment(engine.Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(self)

    monkeypatch.setattr(engine, "Environment", CountingEnvironment)
    platform = homogeneous_platform(20, bandwidth_factor=1.6, cLat=0.1, nLat=0.1)
    pushes = chunks = 0
    for seed in range(5):
        result = engine.simulate_des(
            platform, 1000.0, make_scheduler(), NormalErrorModel(0.3), seed=seed,
            topology=topology,
        )
        (env,) = envs
        envs.clear()
        # Every calendar push takes the next insertion sequence number.
        pushes += env._sequence
        chunks += len(result.records)
    return pushes, chunks


def test_calendar_pushes_per_chunk(monkeypatch):
    pushes, chunks = _pushes_and_chunks(monkeypatch, lambda: RUMR(known_error=0.3))
    assert chunks == 810
    assert pushes <= 4617, f"{pushes / chunks:.2f} calendar pushes per chunk, was 5.70"


def test_calendar_pushes_per_chunk_shared_link(monkeypatch):
    pushes, chunks = _pushes_and_chunks(monkeypatch, Factoring, "sharedbw:cap=40")
    assert chunks == 660
    assert pushes <= 6598, f"{pushes / chunks:.2f} calendar pushes per chunk, was 10.00"
