"""Equivalences the lockstep kernels rest on, checked against scalar rules."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lockstep import first_idle, pack_words
from repro.core.rumr import phase2_min_chunk, survivor_min_chunks
from repro.platform import PlatformSpec, WorkerSpec


@st.composite
def pending_states(draw):
    """(counts, works, crashed) with pad columns; idle workers hold 0.0 work.

    Widths past 64 workers span two words.
    """
    rows = draw(st.integers(1, 6))
    n_max = draw(st.one_of(st.integers(1, 6), st.integers(62, 70)))
    n = draw(st.lists(st.integers(1, n_max), min_size=rows, max_size=rows))
    cells = st.integers(0, 2)
    counts = np.array(
        draw(st.lists(st.lists(cells, min_size=n_max, max_size=n_max),
                      min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, n_max)
    works = np.array(
        draw(st.lists(st.floats(0.5, 100.0), min_size=rows * n_max,
                      max_size=rows * n_max))
    ).reshape(rows, n_max)
    crashed = np.array(
        draw(st.lists(st.booleans(), min_size=rows * n_max, max_size=rows * n_max))
    ).reshape(rows, n_max)
    pad = np.arange(n_max)[None, :] >= np.array(n)[:, None]
    counts[pad] = 1  # pad slots are never idle
    crashed[pad] = False
    works[counts == 0] = 0.0
    return counts, works, crashed, n


def lexicographic_pick(counts, works, crashed, n):
    """The scalar sources' rule at lookahead 1: worker, or None to wait."""
    picks = []
    for r in range(len(counts)):
        live = [i for i in range(n[r]) if not crashed[r, i]]
        if not live:
            picks.append(None)
            continue
        pending, _, worker = min((counts[r, i], works[r, i], i) for i in live)
        picks.append(worker if pending < 1 else None)
    return picks


class TestFirstIdle:
    @given(pending_states())
    def test_equals_lexicographic_rule(self, state):
        counts, works, crashed, n = state
        w, has_idle = first_idle(pack_words(counts == 0), pack_words(crashed))
        got = [int(w[r]) if has_idle[r] else None for r in range(len(counts))]
        assert got == lexicographic_pick(counts, works, crashed, n)

    @given(pending_states())
    def test_without_crashes_every_worker_counts(self, state):
        counts, works, _, n = state
        w, has_idle = first_idle(pack_words(counts == 0))
        got = [int(w[r]) if has_idle[r] else None for r in range(len(counts))]
        none = np.zeros(counts.shape, dtype=bool)
        assert got == lexicographic_pick(counts, works, none, n)


def random_platform(rng, n):
    return PlatformSpec(
        WorkerSpec(
            S=float(rng.uniform(0.5, 3.0)),
            B=float(rng.uniform(1.0, 20.0)),
            cLat=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
            nLat=float(rng.choice([0.0, rng.uniform(0.0, 0.7)])),
        )
        for _ in range(n)
    )


class TestSurvivorMinChunks:
    @pytest.mark.parametrize("known_error", [None, 0.0, 0.3, 1.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scalar_floor_on_survivors(self, known_error, seed):
        rng = np.random.default_rng(seed)
        n_max = 20
        platforms, crashed, pools = [], [], []
        for r in range(40):
            n = int(rng.integers(1, n_max + 1))
            platforms.append(random_platform(rng, n))
            mask = np.zeros(n_max, dtype=bool)
            if r % 5 == 0:
                mask[:n] = True  # every worker gone: the full platform
            else:
                mask[:n] = rng.random(n) < 0.4
            crashed.append(mask)
            pools.append(0.0 if r % 2 else float(rng.uniform(0.1, 500.0)))
        clats = np.zeros((len(platforms), n_max))
        nlats = np.zeros((len(platforms), n_max))
        for r, p in enumerate(platforms):
            clats[r, : p.N] = [w.cLat for w in p]
            nlats[r, : p.N] = [w.nLat for w in p]
        args = (
            clats,
            nlats,
            np.array([p.N for p in platforms]),
            np.array(crashed),
            np.full(len(platforms), known_error or 0.0),
            np.array(pools),
        )
        got = survivor_min_chunks(*args)
        expect = []
        for p, mask, pool in zip(platforms, crashed, pools):
            live = [i for i in range(p.N) if not mask[i]]
            sub = p.subset(live) if live else p
            expect.append(
                phase2_min_chunk(sub, known_error, phase2_work=pool if pool > 0 else None)
            )
        assert all(type(e) is float for e in expect)
        assert got.tolist() == expect
        # Each row alone (a 1-row kernel) gives the same bits.
        for r in range(len(platforms)):
            one = survivor_min_chunks(*(a[r : r + 1] for a in args))
            assert one.tolist() == [expect[r]]

    def test_no_crash_mask_means_full_platform(self):
        rng = np.random.default_rng(7)
        p = random_platform(rng, 5)
        clats = np.array([[w.cLat for w in p]])
        nlats = np.array([[w.nLat for w in p]])
        got = survivor_min_chunks(
            clats, nlats, np.array([5]), None, np.array([0.3]), np.array([40.0])
        )
        assert got.tolist() == [phase2_min_chunk(p, 0.3, phase2_work=40.0)]
