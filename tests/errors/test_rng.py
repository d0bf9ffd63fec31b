"""Tests for random-stream management."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import rng, spawn_rngs, stream_for
from repro.errors.faults import fault_stream, fault_streams
from repro.errors.rng import StateTable, child_seeds, seed_states, streams


def test_spawn_produces_requested_count():
    assert len(spawn_rngs(0, 3)) == 3


def test_spawned_streams_are_reproducible():
    a1, b1 = spawn_rngs(42, 2)
    a2, b2 = spawn_rngs(42, 2)
    assert a1.random(5).tolist() == a2.random(5).tolist()
    assert b1.random(5).tolist() == b2.random(5).tolist()


def test_spawned_streams_are_independent():
    a, b = spawn_rngs(42, 2)
    assert a.random(5).tolist() != b.random(5).tolist()


def test_different_seeds_differ():
    (a,) = spawn_rngs(1, 1)
    (b,) = spawn_rngs(2, 1)
    assert a.random(5).tolist() != b.random(5).tolist()


def test_spawn_accepts_seedsequence():
    ss = np.random.SeedSequence(7)
    (a,) = spawn_rngs(ss, 1)
    (b,) = spawn_rngs(np.random.SeedSequence(7), 1)
    assert a.random(3).tolist() == b.random(3).tolist()


def test_stream_for_is_keyed():
    x = stream_for(5, 1, 2).random(4).tolist()
    y = stream_for(5, 1, 3).random(4).tolist()
    z = stream_for(5, 1, 2).random(4).tolist()
    assert x == z
    assert x != y


def test_stream_for_none_seed_defaults_to_zero():
    assert stream_for(None, 1).random(3).tolist() == stream_for(0, 1).random(3).tolist()


def test_stream_for_rejects_negative_keys():
    with pytest.raises(ValueError):
        stream_for(0, -1)


# -- batched seed derivation ------------------------------------------------

#: Word-count edges of numpy's entropy assembly: one word, two, three.
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**96 + 5]
entropies = st.one_of(
    st.sampled_from(_EDGES), st.integers(0, 2**64 - 1), st.integers(2**64, 2**130)
)
key_elements = st.one_of(
    st.integers(0, 3), st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)
)
spawn_keys = st.lists(key_elements, max_size=3).map(tuple)


@given(st.lists(entropies, min_size=1, max_size=6), spawn_keys)
def test_batched_seed_states_equal_seedsequence(ents, key):
    states = seed_states(ents, key)
    for entropy, row in zip(ents, states, strict=True):
        ref = np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)
        assert np.array_equal(row, ref)


@given(
    st.integers(0, 3).flatmap(
        lambda k: st.lists(
            st.tuples(entropies, st.lists(key_elements, min_size=k, max_size=k)),
            min_size=1,
            max_size=6,
        )
    )
)
def test_batched_seed_states_with_mixed_word_counts(pairs):
    # Rows whose entropy and key elements assemble to different word
    # counts hash in separate groups of one call.
    ents = [entropy for entropy, _ in pairs]
    keys = [key for _, key in pairs]
    states = seed_states(ents, keys)
    for (entropy, key), row in zip(pairs, states, strict=True):
        ref = np.random.SeedSequence(entropy, spawn_key=tuple(key))
        assert np.array_equal(row, ref.generate_state(4, np.uint64))


@given(st.lists(entropies, min_size=1, max_size=5), spawn_keys)
def test_batched_seed_streams_equal_stream_for(ents, key):
    for entropy, gen in zip(ents, streams(ents, key), strict=True):
        ref = stream_for(entropy, *key)
        assert gen.random(3).tolist() == ref.random(3).tolist()
        assert gen.normal(1.0, 0.3, 2).tolist() == ref.normal(1.0, 0.3, 2).tolist()


@given(st.lists(entropies, min_size=1, max_size=5))
def test_batched_seed_children_equal_spawn(ents):
    # Child i of a seed is spawn(n)[i]: for spawn_rngs, for the factor
    # streams' children 0/1 and for the fault stream's child 2.
    for i in range(3):
        batched = streams(ents, (i,))
        for entropy, gen in zip(ents, batched, strict=True):
            child = np.random.SeedSequence(entropy).spawn(3)[i]
            ref = np.random.Generator(np.random.PCG64(child)).random(3).tolist()
            assert gen.random(3).tolist() == ref
            assert spawn_rngs(entropy, 3)[i].random(3).tolist() == ref
    for entropy, gen in zip(ents, fault_streams(ents), strict=True):
        assert gen.random(3).tolist() == fault_stream(entropy).random(3).tolist()


@given(st.lists(st.tuples(entropies, spawn_keys), min_size=1, max_size=6))
@example([(0, (0, 0, 0)), (2**32 - 1, (1, 2, 3)), (2**32, (4,)), (2**64, ()), (2**64 + 9, (5, 6))])
def test_batched_seed_child_seeds_equal_stream_for(pairs):
    # The harness's cell seeds, evaluated on the seed-state arrays, equal
    # each generator's first integers(0, 2**63 - 1) draw.
    for entropy, key in pairs:
        ref = int(stream_for(entropy, *key).integers(0, 2**63 - 1))
        got = child_seeds(entropy, key)
        assert got.dtype == np.int64 and got.tolist() == [ref]
    same_key = [(entropy, pairs[0][1]) for entropy, _ in pairs]
    got = child_seeds([e for e, _ in same_key], same_key[0][1]).tolist()
    assert got == [int(stream_for(e, *k).integers(0, 2**63 - 1)) for e, k in same_key]


def test_batched_seed_child_seeds_rejection_rows_drawn_by_numpy(monkeypatch):
    # A draw in numpy's rejection branch is left to numpy: force every
    # row there and the seeds must not change.
    from repro.errors import rng

    keys = np.indices((3, 2, 4)).reshape(3, -1).T
    expected = child_seeds(2003, keys)
    monkeypatch.setattr(rng, "_CHILD_SEED_REJECT", 2**64 - 1)
    assert np.array_equal(child_seeds(2003, keys), expected)
    assert child_seeds([], (1,)).shape == (0,)


def test_batched_seed_derivation_broadcasts_and_validates():
    keys = np.array([[p, e, r] for p in range(2) for e in range(3) for r in range(4)])
    states = seed_states(7, keys)
    assert states.shape == (24, 4)
    for key, row in zip(keys, states):
        ref = np.random.SeedSequence(7, spawn_key=tuple(int(k) for k in key))
        assert np.array_equal(row, ref.generate_state(4, np.uint64))
    assert seed_states([], (2,)).shape == (0, 4)
    assert streams([], (2,)) == []
    with pytest.raises(ValueError):
        seed_states([1, 2, 3], [[0], [1]])
    with pytest.raises(ValueError):
        seed_states(-1, ())
    with pytest.raises(TypeError):
        seed_states(1.5, ())


# -- scoped state tables ------------------------------------------------------

def _draws(entropy, key):
    gen = stream_for(entropy, *key)
    return gen.random(3).tolist() + gen.normal(1.0, 0.3, 2).tolist()


@given(st.data())
def test_batched_seed_scoped_table_draws_equal_unscoped(data):
    # Inside a scope, stream_for draws bitwise what it draws outside, for
    # pairs in the table (read back) and out of it (hashed as ever),
    # through nested scopes and a scope left by an exception.
    width = data.draw(st.integers(0, 3), label="key length")
    key = st.lists(key_elements, min_size=width, max_size=width).map(tuple)
    keys = data.draw(st.lists(key, min_size=1, max_size=3), label="table keys")
    outer_ents = data.draw(st.lists(entropies, min_size=1, max_size=4), label="outer")
    inner_ents = data.draw(st.lists(entropies, max_size=3), label="inner")
    inside = [(e, k) for e in outer_ents + inner_ents for k in keys]
    outside = data.draw(st.lists(st.tuples(entropies, spawn_keys), max_size=3))
    probes = inside + outside + [(None, keys[0])]
    expected = [_draws(e, k) for e, k in probes]
    outer, inner = StateTable(outer_ents, keys), StateTable(inner_ents, keys)

    def check(tables):
        assert [_draws(e, k) for e, k in probes] == expected
        for e, k in inside:
            held = any(e in t._ents and k in t._keys for t in tables)
            assert (rng._scoped_words(e, k) is not None) == held
        assert rng._SCOPE.get() == tables

    check(())
    with outer.scope():
        check((outer,))
        with inner.scope():
            check((inner, outer))
        check((outer,))
        with pytest.raises(KeyError), inner.scope():
            check((inner, outer))
            raise KeyError("left by an exception")
        check((outer,))
    check(())


@given(st.lists(entropies, min_size=1, max_size=6), spawn_keys, st.data())
def test_batched_seed_scoped_table_serves_streams(ents, key, data):
    # streams() reads the rows a scoped table holds and hashes the rest.
    held = data.draw(st.lists(st.sampled_from(ents), max_size=len(ents)))
    expected = [gen.random(3).tolist() for gen in streams(ents, key)]
    with StateTable(held, [key]).scope():
        assert [gen.random(3).tolist() for gen in streams(ents, key)] == expected
        assert [stream_for(e, *key).random(3).tolist() for e in ents] == expected


def test_batched_seed_table_never_serves_non_int_values():
    # numpy integers, bools and floats are never looked up: the first two
    # hash as numpy would, and floats still raise as numpy does.
    with StateTable([1, 3], [(0,), (1,)]).scope():
        assert rng._scoped_words(3, (1,)) is not None
        for entropy, key in [(np.int64(3), (1,)), (True, (1,)), (3, (True,))]:
            assert rng._scoped_words(entropy, key) is None
            assert _draws(entropy, key) == _draws(int(entropy), tuple(map(int, key)))
        with pytest.raises(TypeError):
            stream_for(1.0, 0)
        with pytest.raises(TypeError):
            stream_for(1, 1.0)
        with pytest.raises(ValueError):
            stream_for(1, -1)
    assert StateTable([5, 5, 6], [(0,), (1,), (0,)])._states.shape == (4, 4)
    assert StateTable([], [(2,)])._states.shape == (0, 4)
    with pytest.raises(ValueError):
        StateTable([1], [(0,), (0, 1)])
