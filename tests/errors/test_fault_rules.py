"""Each shared fault rule gives the same bits on Python floats and rows.

Every fault rule is written once over an op namespace: ``FaultSchedule``
and ``FaultModel.sample`` call it with ``SCALAR_OPS`` on one run's
floats, ``FaultStack`` and ``FaultModel.sample_batch`` with ``ARRAY_OPS``
on every run's rows.  Each property evaluates a rule row by row on the
scalar side — which must return plain ``float``s and ``bool``s, never
numpy scalars — and on 1-row and multi-row arrays, and compares bits.
Operands land on the rules' boundaries (a start on a pause or slowdown
onset, an end on a crash) as often as anywhere else.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lockstep import ARRAY_OPS, SCALAR_OPS
from repro.errors.faults import (
    CrashFaults,
    PauseFaults,
    SlowdownFaults,
    is_lost,
    loss_rule,
    onset_walk,
    pause_stretch,
    slow_stretch,
    spike_rule,
)
from tests.core.test_rules import assert_one_rule, columns, rows_of

times = st.sampled_from([0.0, 2.5, 10.0, 12.0]) | st.floats(0.0, 50.0)
durations = st.sampled_from([0.0, 2.5, 7.5]) | st.floats(0.0, 20.0)
factors = st.sampled_from([1.0, 2.5]) | st.floats(1.0, 4.0)
crashes = st.sampled_from([math.inf, 0.0, 10.0, 12.5]) | st.floats(0.0, 50.0)
unit = st.floats(0.0, 1.0, exclude_max=True)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestStretchRules:
    @given(rows_of(times, durations, times, durations))
    def test_one_rule_pause_stretch(self, rows):
        assert_one_rule(pause_stretch, rows, columns(rows))

    @given(rows_of(times, durations, times, factors))
    def test_one_rule_slow_stretch(self, rows):
        assert_one_rule(slow_stretch, rows, columns(rows))


class TestLossRules:
    @given(rows_of(crashes, times))
    def test_one_rule_is_lost(self, rows):
        assert_one_rule(lambda ops, crash, end: is_lost(crash, end), rows, columns(rows), bool)

    @given(rows_of(crashes, times, times))
    def test_one_rule_loss_rule(self, rows):
        assert_one_rule(lambda ops, *a: loss_rule(ops, *a)[0], rows, columns(rows), bool)
        assert_one_rule(lambda ops, *a: loss_rule(ops, *a)[1], rows, columns(rows))


class TestSpikeRule:
    @given(rows_of(unit, st.sampled_from([0.0, 0.3, 1.0]), durations))
    def test_one_rule_spike_rule(self, rows):
        assert_one_rule(spike_rule, rows, columns(rows))


@st.composite
def walks(draw):
    """Per-run ``2n``-uniform blocks for one worker count and fault model."""
    n = draw(st.integers(1, 12))
    runs = draw(st.integers(1, 6))
    block = [draw(st.lists(unit, min_size=2 * n, max_size=2 * n)) for _ in range(runs)]
    prob = draw(st.sampled_from([0.0, 0.5, 1.0]) | unit)
    tmax = draw(st.sampled_from([0.0, 100.0]) | st.floats(0.0, 500.0))
    model = draw(st.sampled_from([
        CrashFaults(prob=prob, tmax=tmax),
        CrashFaults(prob=prob, tmax=tmax, spare_one=False),
        PauseFaults(prob=prob, tmax=tmax, duration=draw(durations)),
        SlowdownFaults(prob=prob, tmax=tmax, factor=draw(factors)),
    ]))
    return n, np.array(block), model


class TestOnsetRules:
    @given(walks())
    def test_one_rule_onset_walk_and_placement(self, drawn):
        """The walk and each kind's placement, scalar per run vs rows at once."""
        n, block, model = drawn
        scalar = []
        for row in block:
            hits, onsets = onset_walk(SCALAR_OPS, row.tolist(), n, model.prob, model.tmax)
            assert all(type(h) is bool for h in hits)
            assert all(type(t) is float for t in onsets)
            placed = model._place(SCALAR_OPS, hits, onsets)
            assert all(type(v) is float for col in placed.values() for v in col)
            scalar.append((hits, onsets, placed))
        for sel in [slice(None)] + [slice(r, r + 1) for r in range(len(block))]:
            hits, onsets = onset_walk(ARRAY_OPS, block[sel], n, model.prob, model.tmax)
            placed = model._place(ARRAY_OPS, hits, onsets)
            want = scalar[sel]
            assert np.array_equal(np.array(hits).T, [w[0] for w in want])
            # An onset means something only where its worker was hit.
            got = np.where(np.array(hits).T, np.array(onsets).T, 0.0)
            ref = [[t if h else 0.0 for h, t in zip(w[0], w[1])] for w in want]
            assert _bits(got) == _bits(ref)
            for name, column in placed.items():
                assert _bits(np.array(column).T) == _bits([w[2][name] for w in want])
