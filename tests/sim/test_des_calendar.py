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
(7,445 for 660 chunks); as a callback chain it costs two.

Workers and relay links were generator processes over ``Store`` inboxes:
every chunk cost a hand-off entry per server it crossed, and the master
a flush entry per decision.  As callback FIFOs whose zero-delay steps run
inline when nothing can fire first (``Environment.zero_delay``), the star
run fell from 5.70 to 2.26 pushes per chunk and the chain from 21.97 to
10.02 (6.94 of which are relay-hop holds).  What a chunk still costs is
its link time, one hold per relay hop and its computation; the rest are
the master's wake-ups after ``WAIT`` and the steps that tie with another
entry at their instant.

The master and the crash watches are the only generators left.  The
kernel's process driver pushes their start entry and nothing when they
return; a ``Process`` event also pushed a termination entry that fired
with no callbacks, one per run on the runs below (5 per row).  These
tests keep the removed entries from coming back.
"""

import repro.sim.engine as engine
from repro.core import RUMR, Factoring
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform

PLATFORM = homogeneous_platform(20, bandwidth_factor=1.6, cLat=0.1, nLat=0.1)


def _rumr():
    return RUMR(known_error=0.3)


def _pushes_and_chunks(monkeypatch, make_scheduler, topology=None) -> tuple[int, int]:
    envs = []

    class CountingEnvironment(engine.Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(self)

    monkeypatch.setattr(engine, "Environment", CountingEnvironment)
    pushes = chunks = 0
    for seed in range(5):
        result = engine.simulate_des(
            PLATFORM, 1000.0, make_scheduler(), NormalErrorModel(0.3), seed=seed,
            topology=topology,
        )
        (env,) = envs
        envs.clear()
        # Every calendar push takes the next insertion sequence number.
        pushes += env._sequence
        chunks += len(result.records)
    return pushes, chunks


#: topology -> (scheduler, chunks, push bound, pushes per chunk before the
#: callback FIFOs).  The bounds are the counts at the time of writing.
ROWS = {
    "star": (_rumr, 810, 1823, 5.70),
    "chain:relay=sf": (_rumr, 310, 3100, 21.97),
    "tree:fanout=4": (_rumr, 310, 1065, 8.74),
    "star:ports=2,out=0.3": (_rumr, 810, 8197, 11.52),
    "sharedbw:cap=40": (Factoring, 660, 5344, 10.00),
}


def _check(monkeypatch, topology: str) -> None:
    make_scheduler, expected_chunks, bound, before = ROWS[topology]
    pushes, chunks = _pushes_and_chunks(
        monkeypatch, make_scheduler, None if topology == "star" else topology
    )
    assert chunks == expected_chunks
    assert pushes <= bound, (
        f"{pushes / chunks:.2f} calendar pushes per chunk, was {before:.2f} "
        f"with worker and relay processes, {bound / chunks:.2f} as callback FIFOs"
    )


def test_calendar_pushes_per_chunk(monkeypatch):
    _check(monkeypatch, "star")


def test_calendar_pushes_per_chunk_chain(monkeypatch):
    _check(monkeypatch, "chain:relay=sf")


def test_calendar_pushes_per_chunk_tree(monkeypatch):
    _check(monkeypatch, "tree:fanout=4")


def test_calendar_pushes_per_chunk_ported_star(monkeypatch):
    _check(monkeypatch, "star:ports=2,out=0.3")


def test_calendar_pushes_per_chunk_shared_link(monkeypatch):
    _check(monkeypatch, "sharedbw:cap=40")

