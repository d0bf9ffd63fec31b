"""Each shared scheduler rule gives the same bits on Python floats and rows.

Every rule of the dynamic schedulers is written once over an op
namespace: the scalar sources call it with ``SCALAR_OPS`` on Python
floats, the lockstep kernels with ``ARRAY_OPS`` on float64 rows.  Each
property here draws per-row operands, evaluates the rule row by row on
the scalar side — which must return a plain ``float`` or ``bool``, never
a numpy scalar — and on 1-row and multi-row arrays, and compares bits.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.adaptive import error_estimate, fold_interval, should_switch
from repro.core.factoring import batch_chunk
from repro.core.lockstep import ARRAY_OPS, SCALAR_OPS
from repro.core.rumr import chunk_floor, overhead_of
from repro.core.weighted_factoring import survivor_weight, weighted_chunk

positive = st.floats(1e-3, 1e3)
#: 0 is a zero pool, an unknown error or a zero estimate.
zero_or_positive = st.one_of(st.just(0.0), positive)
#: Thirds and the like are inexact, so sums in another order show.
latency = st.one_of(
    st.just(0.0), st.floats(0.0, 2.0), st.integers(1, 2000).map(lambda k: k / 997)
)
factors = st.floats(1.001, 8.0)
counts = st.integers(1, 40)


def assert_one_rule(rule, scalar_rows, array_cols, kind=float):
    """The rule's scalar results are plain ``kind``s equal in bits to its rows.

    ``rule(SCALAR_OPS, *row)`` runs on each of ``scalar_rows``;
    ``rule(ARRAY_OPS, *cols)`` on all of ``array_cols``' rows and on each
    row alone (a 1-row kernel).
    """
    scalars = [rule(SCALAR_OPS, *row) for row in scalar_rows]
    assert all(type(x) is kind for x in scalars), [type(x) for x in scalars]
    want = np.array(scalars, dtype=kind)
    for sel in [slice(None)] + [slice(r, r + 1) for r in range(len(scalars))]:
        got = np.asarray(rule(ARRAY_OPS, *(c[sel] for c in array_cols)))
        assert got.dtype == want.dtype and got.tobytes() == want[sel].tobytes()


def rows_of(*operands):
    """Draw 1-6 rows, each a tuple with one value per operand strategy."""
    return st.lists(st.tuples(*operands), min_size=1, max_size=6)


def columns(rows):
    """Per-operand columns of drawn rows."""
    return [np.array(col) for col in zip(*rows)]


@st.composite
def crash_rows(draw):
    """Rows of per-worker values and crash masks over ``n_max`` slots.

    Row ``r`` has ``n[r]`` real workers; slots past it are padding (0.0,
    never crashed).  Some rows lose every worker.  Rows of 8 or more
    slots tell a left fold from ``np.sum``'s unrolled order.
    """
    n_max = draw(st.integers(1, 16))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, n_max))
        values = draw(st.lists(latency, min_size=n, max_size=n))
        crashed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows.append((values, crashed))
    return n_max, rows


def survivors(row):
    """A crash row's surviving values; all of them once every worker is gone."""
    vals, crashed = row
    return [v for v, c in zip(vals, crashed) if not c] or vals


def masked(rows, n_max):
    """Crash rows as the kernels see them: dead and padded slots read 0.0."""
    out = np.zeros((len(rows), n_max))
    for r, (vals, crashed) in enumerate(rows):
        gone = all(crashed)
        out[r, : len(vals)] = [0.0 if c and not gone else v for v, c in zip(vals, crashed)]
    return out


class TestFactoringRule:
    @given(rows_of(positive, factors, st.integers(1, 40), zero_or_positive))
    def test_one_rule_batch_chunk(self, rows):
        rows = [(rem, f * n, floor) for rem, f, n, floor in rows]
        assert_one_rule(batch_chunk, rows, columns(rows))


class TestWeightedFactoringRule:
    @given(rows_of(positive, factors, st.floats(1e-3, 1.0), zero_or_positive, counts))
    def test_one_rule_weighted_chunk(self, rows):
        assert_one_rule(weighted_chunk, rows, columns(rows))

    @given(crash_rows())
    def test_one_rule_survivor_weight(self, drawn):
        n_max, rows = drawn
        # Weights are positive; a crashed slot enters the array fold as 0.0.
        rows = [([v + 0.5 for v in vals], crashed) for vals, crashed in rows]
        weight = [vals[0] for vals, _ in rows]
        assert_one_rule(
            survivor_weight,
            [(w, survivors(row)) for w, row in zip(weight, rows)],
            [np.array(weight), masked(rows, n_max)],
        )


class TestChunkFloorRule:
    @given(rows_of(zero_or_positive, counts, zero_or_positive, zero_or_positive))
    def test_one_rule_chunk_floor(self, rows):
        assert_one_rule(chunk_floor, rows, columns(rows))

    @given(crash_rows(), st.data())
    def test_one_rule_survivor_overhead(self, drawn, data):
        n_max, rows = drawn
        nlat_rows = [
            (data.draw(st.lists(latency, min_size=len(v), max_size=len(v))), c)
            for v, c in rows
        ]
        n_live = [len(survivors(row)) for row in rows]
        assert_one_rule(
            overhead_of,
            [(survivors(c), survivors(n), k) for c, n, k in zip(rows, nlat_rows, n_live)],
            [masked(rows, n_max), masked(nlat_rows, n_max), np.array(n_live)],
        )


class TestAdaptiveRules:
    @given(rows_of(st.floats(0.0, 50.0), st.integers(0, 30)))
    def test_one_rule_error_estimate(self, rows):
        # count < 2 holds m2 = 0: the estimate is 0.
        rows = [(m2 if count >= 2 else 0.0, count) for m2, count in rows]
        assert_one_rule(error_estimate, rows, columns(rows))

    @given(
        rows_of(
            st.floats(-10.0, 1e3),
            positive,
            zero_or_positive,
            zero_or_positive,
            counts,
            st.integers(0, 20),
            st.integers(2, 12),
        )
    )
    def test_one_rule_should_switch(self, rows):
        assert_one_rule(should_switch, rows, columns(rows), kind=bool)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(math.nan), st.floats(0.0, 40.0)),
                st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_one_rule_fold_interval(self, notes):
        # The scalar estimator folds Python floats; the kernel folds one
        # row of its float (count, mean, m2) table as numpy scalars (NaN:
        # a worker's first completion; a zero prediction and intervals
        # past the outlier bound give no sample).
        plain = (0, 0.0, 0.0)
        table = np.zeros((1, 3))
        for interval, predicted in notes:
            plain = fold_interval(plain, interval, predicted)
            table[0] = fold_interval(
                tuple(table[0]), np.float64(interval), np.float64(predicted)
            )
        assert type(plain[0]) is int and all(type(x) is float for x in plain[1:])
        assert table.tobytes() == np.array([plain], dtype=float).tobytes()
        # The fold's m2 feeds the estimate, here on a 1-row table.
        count, _, m2 = table.T
        assert_one_rule(error_estimate, [(plain[2], plain[0])], [m2, count])
