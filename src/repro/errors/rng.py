"""Reproducible random-stream management.

Every simulation run derives its randomness from a single integer seed via
``numpy.random.SeedSequence`` spawn keys, so that:

* the same (seed, scenario) pair always reproduces the same run;
* communication and computation errors come from *independent* streams, so
  adding a chunk transfer never perturbs the computation error sequence;
* paired comparisons across algorithms can share a base seed (common random
  numbers) without the algorithms' differing draw counts aliasing streams.

A stream is always ``SeedSequence(entropy, spawn_key=key)`` feeding a
``PCG64``; child ``i`` of a seed is ``spawn_key=(i,)``, bit-identical to
``SeedSequence(seed).spawn(n)[i]`` without building its siblings.

Sweeps derive thousands of streams at once.  :func:`seed_states`
evaluates numpy's documented ``SeedSequence`` hash (``mix_entropy`` then
``generate_state``) over ``uint32`` word arrays for many
``(entropy, spawn_key)`` pairs in one pass, and :func:`streams` hands
each ``PCG64`` its state words through numpy's public
:class:`~numpy.random.bit_generator.ISeedSequence` interface.  Both give
exactly the generators :func:`stream_for` builds one at a time.
:func:`child_seeds` goes one step further for the harness's per-cell
seeds: it evaluates each generator's first ``integers(0, 2**63 - 1)``
draw on the state arrays, without building the generators.

Callers that know ahead which streams their scalar runs will build
hash them in one pass into a :class:`StateTable` and run inside
``with table.scope():``.  There :func:`stream_for` (and so
:func:`spawn_rngs`) and :func:`streams` read a stream's state words from
the table before they would hash, and build bitwise the generator the
hash would.  A lookup misses, and the stream derives as outside any
scope, when the table lacks the ``(entropy, spawn_key)`` pair or when
the entropy or a key element is not a plain ``int``.  The table is
read-only and the scope is a :mod:`contextvars` variable: it nests, it
ends with its ``with`` block (exceptions included), and no call signature
changes.  Users: a multi-job stream's first-attempt run seeds
(:func:`repro.sim.multijob.simulate_stream`; re-attempt and backoff
seeds miss), a sweep's fault streams
(:class:`repro.errors.faults.FaultPlaneCache`) and the heterogeneity
study's repetitions (:mod:`repro.experiments.hetero`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import operator
import typing

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "StateTable", "child_seeds", "seed_states", "spawn_rngs", "stream_for", "streams",
]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
#: uint64 state words a PCG64 draws from its seed sequence.
_PCG64_WORDS = 4
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
#: Seeding sets ``state = (inc + seed) * M + inc`` and the first draw steps
#: once more before its output, so that draw reads
#: ``seed * M**2 + inc * (M**2 + M + 1)``.
_PCG_SEED_MULT = _PCG_MULT**2 & _MASK128
_PCG_INC_MULT = (_PCG_MULT**2 + _PCG_MULT + 1) & _MASK128
#: Exclusive bound of the harness's child seeds, ``integers(0, 2**63 - 1)``.
_CHILD_SEED_BOUND = 2**63 - 1
#: numpy's Lemire draw rejects a product whose low word is below this
#: (``(2**64 - 1 - (bound - 1)) % bound``; here 2).
_CHILD_SEED_REJECT = (_MASK64 - (_CHILD_SEED_BOUND - 1)) % _CHILD_SEED_BOUND
_LOW32 = np.uint64(0xFFFFFFFF)


def spawn_rngs(seed: int | np.random.SeedSequence | None, n: int) -> list[np.random.Generator]:
    """Return ``n`` independent generators derived from ``seed``.

    Child ``i`` is :func:`stream_for` ``(seed, i)``, bitwise
    ``SeedSequence(seed).spawn(n)[i]``.  A ``SeedSequence`` argument is
    spawned from (advancing its child counter); ``None`` draws fresh OS
    entropy once for all children.
    """
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.Generator(np.random.PCG64(c)) for c in seed.spawn(n)]
    if seed is None:
        seed = np.random.SeedSequence().entropy
    return [stream_for(seed, i) for i in range(n)]


def stream_for(seed: int | None, *keys: int) -> np.random.Generator:
    """A generator keyed by an arbitrary tuple of non-negative integers.

    Used by the experiment harness to give every (configuration, repetition)
    cell its own stream: ``stream_for(seed, config_index, repetition)``.
    Inside the scope of a :class:`StateTable` that holds the stream, the
    state words come from the table instead of a ``SeedSequence``.
    """
    entropy = 0 if seed is None else seed
    words = _scoped_words(entropy, keys)
    if words is not None:
        return np.random.Generator(np.random.PCG64(_StateWords(words)))
    if any(k < 0 for k in keys):
        raise ValueError(f"stream keys must be non-negative, got {keys}")
    root = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(keys))
    return np.random.Generator(np.random.PCG64(root))


def _digits(values: np.ndarray, min_words: int = 1) -> "tuple[np.ndarray, np.ndarray]":
    """Little-endian 32-bit words of non-negative integers, numpy's way.

    Returns ``(words, count)``: ``words[:, d]`` is digit ``d`` of every
    value (zero past its length) and ``count`` the digits numpy's
    ``SeedSequence`` assembles per value (``0`` still takes one word),
    both zero-padded to at least ``min_words``.
    """
    if values.dtype == np.uint64:
        count = 1 + (values > _MASK32)
        words = [values & _MASK32, values >> 32]
    else:
        count = np.array([max(1, -(-int(v).bit_length() // 32)) for v in values])
        words = [
            np.array([(int(v) >> (32 * d)) & _MASK32 for v in values], dtype=np.uint64)
            for d in range(int(count.max()))
        ]
    words += [np.zeros(len(values), dtype=np.uint64)] * (min_words - len(words))
    return np.stack(words, axis=1).astype(np.uint32), np.maximum(count, min_words)


def _as_integers(values) -> np.ndarray:
    """Non-negative integers as an array, ``uint64`` when every value fits."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" or arr.size == 0:
        if arr.dtype.kind == "i" and (arr < 0).any():
            raise ValueError("seed entropy and spawn keys must be non-negative")
        return arr.astype(np.uint64)
    # Python ints past int64 (numpy infers float64 or object for them).
    arr = np.asarray(values, dtype=object)
    ints = []
    for v in arr.flat:
        if not isinstance(v, (int, np.integer)):
            raise TypeError(f"seed entropy and spawn keys must be integers, got {v!r}")
        ints.append(int(v))
    if min(ints) < 0:
        raise ValueError("seed entropy and spawn keys must be non-negative")
    dtype = np.uint64 if max(ints) <= 0xFFFFFFFFFFFFFFFF else object
    return np.array(ints, dtype=dtype).reshape(arr.shape)


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(xor, mul)`` constants of ``count`` successive hash steps.

    numpy's hash walks its multiplier ``c_{k+1} = c_k · mult`` once per
    hashed word whatever the data, so step ``k`` is ``v ^= c_k; v *=
    c_{k+1}; v ^= v >> 16`` with constants known in advance.
    """
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    arr = np.array(consts, dtype=np.uint32)[:, None]
    arr.flags.writeable = False
    return arr[:-1], arr[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Hash steps over rows of word columns (``hashmix`` / ``generate_state``)."""
    out = values ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix_pool(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` over word columns: ``(L, M)`` → ``(4, M)``.

    ``words`` holds each pair's assembled entropy, one pair per column,
    zero-padded to at least the pool size (numpy hashes zeros for a pool
    slot past the entropy, so the padding changes nothing).  Hash steps
    that read the same word — the pool's first fill, one source slot
    mixed into the three others, one extra word mixed into all four —
    run as one row-stacked operation.
    """
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * len(words))
    pool = _hash(words[:_POOL_SIZE], xor[:4], mul[:4])
    step = 4
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hash(pool[src], xor[step : step + 3], mul[step : step + 3])
        pool[dst] = _mix(pool[dst], hashed)
        step += 3
    for src in range(_POOL_SIZE, len(words)):
        hashed = _hash(words[src], xor[step : step + 4], mul[step : step + 4])
        pool = _mix(pool, hashed)
        step += 4
    return pool


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of two word arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> 16
    return result


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` per pool column."""
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _PCG64_WORDS)
    cycled = pool[np.arange(2 * _PCG64_WORDS) % _POOL_SIZE]
    state = _hash(cycled, xor, mul).astype(np.uint64)
    # Little-endian word pairs, as numpy views its uint32 state.
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


def seed_states(entropy, spawn_keys=()) -> np.ndarray:
    """The ``(M, 4)`` uint64 PCG64 seed states of many seed sequences at once.

    Row ``i`` equals ``SeedSequence(entropy[i], spawn_key=spawn_keys[i])
    .generate_state(4, np.uint64)`` bit for bit.  ``entropy`` is one
    non-negative integer or a sequence of them, ``spawn_keys`` one key
    (a tuple of non-negative integers) or an ``(M, k)`` array of them; a
    single side broadcasts against the other.  Integers of any size are
    accepted, assembled into words exactly as numpy does.
    """
    ent = _as_integers(entropy).reshape(-1)
    keys = _as_integers(spawn_keys)
    if keys.ndim == 1:
        keys = keys.reshape(1, -1)
    rows = max(len(ent), len(keys)) if len(ent) and len(keys) else 0
    if len(ent) not in (1, rows) or len(keys) not in (1, rows):
        raise ValueError(
            f"cannot broadcast {len(ent)} entropies against {len(keys)} spawn keys"
        )
    out = np.empty((rows, _PCG64_WORDS), dtype=np.uint64)
    if rows == 0:
        return out
    # numpy zero-pads the run entropy to the pool size ahead of a spawn
    # key (and padding an unspawned one changes nothing, see _mix_pool),
    # so rows differ in assembled length only by entropy words past the
    # pool and by their key elements' word counts.  Rows of equal counts
    # hash together.
    parts = [_digits(np.broadcast_to(ent, (rows,)), min_words=_POOL_SIZE)]
    parts += [_digits(np.broadcast_to(col, (rows,))) for col in keys.T]
    counts = np.stack([count for _, count in parts], axis=1)
    if (counts == counts[0]).all():
        shapes, group = counts[:1], np.zeros(rows, dtype=np.intp)
    else:
        shapes, group = np.unique(counts, axis=0, return_inverse=True)
    for g, shape in enumerate(shapes):
        members = np.flatnonzero(group.reshape(-1) == g)
        words = np.concatenate(
            [w[members, :n] for (w, _), n in zip(parts, shape)], axis=1
        )
        out[members] = _generate_state(_mix_pool(np.ascontiguousarray(words.T)))
    return out


class _StateWords(ISeedSequence):
    """Replays one row of :func:`seed_states` to a bit generator."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        words = self._words
        if dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            words = words.astype("<u8").view("<u4").astype(np.uint32)
        if n_words > len(words):
            raise ValueError(f"only {len(words)} state words were derived")
        return words[:n_words]


def _mul64(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Full 128-bit products of uint64 arrays as ``(high, low)`` words."""
    a_lo, a_hi = a & _LOW32, a >> 32
    b_lo, b_hi = b & _LOW32, b >> 32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _LOW32) + (hl & _LOW32)
    high = a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    return high, (ll & _LOW32) | (mid << 32)


def _mul128(hi: np.ndarray, lo: np.ndarray, c: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(hi, lo) * c`` modulo ``2**128``, as ``(high, low)`` words."""
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _MASK64)
    high, low = _mul64(lo, c_lo)
    return high + hi * c_lo + lo * c_hi, low


def child_seeds(entropy, spawn_keys=()) -> np.ndarray:
    """Many generators' first ``integers(0, 2**63 - 1)`` draws, as int64.

    Element ``i`` equals ``int(stream_for(entropy[i], *spawn_keys[i])
    .integers(0, 2**63 - 1))`` (arguments broadcast as in
    :func:`seed_states`).  The draw is evaluated on the
    :func:`seed_states` words: PCG64's seeding, its first XSL-RR output
    and numpy's Lemire bound, in uint64 word arithmetic.  A row whose
    draw takes numpy's rejection branch (probability ``2**-63``) is drawn
    by numpy itself.
    """
    states = seed_states(entropy, spawn_keys)
    one = np.uint64(1)
    seed_hi, seed_lo = states[:, 0], states[:, 1]
    # PCG64's increment is the odd number (inc_words << 1) | 1.
    inc_hi = (states[:, 2] << one) | (states[:, 3] >> np.uint64(63))
    inc_lo = (states[:, 3] << one) | one
    a_hi, a_lo = _mul128(seed_hi, seed_lo, _PCG_SEED_MULT)
    b_hi, b_lo = _mul128(inc_hi, inc_lo, _PCG_INC_MULT)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo).astype(np.uint64)
    # XSL-RR output: (hi ^ lo) rotated right by the top six state bits.
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    draw, leftover = _mul64(x, np.uint64(_CHILD_SEED_BOUND))
    for row in np.flatnonzero(leftover < _CHILD_SEED_REJECT):
        gen = np.random.Generator(np.random.PCG64(_StateWords(states[row])))
        draw[row] = gen.integers(0, _CHILD_SEED_BOUND)
    return draw.astype(np.int64)


def streams(entropy, spawn_keys=()) -> list[np.random.Generator]:
    """Generators of many seed sequences, hashed in one :func:`seed_states` pass.

    Element ``i`` equals ``Generator(PCG64(SeedSequence(entropy[i],
    spawn_key=spawn_keys[i])))`` — e.g. ``streams(seeds, (2,))`` is
    ``[stream_for(s, 2) for s in seeds]`` — bit for bit.  The hash pass
    has a fixed cost of about 150 µs (a 2-core x86 host), so a handful
    of streams is cheaper through :func:`stream_for`.  With one key for
    every row, rows a scoped :class:`StateTable` holds are read from it
    and only the others are hashed.
    """
    if _SCOPE.get() and np.ndim(spawn_keys) == 1:
        key = tuple(spawn_keys)
        ents = [entropy] if np.ndim(entropy) == 0 else list(entropy)
        rows = [_scoped_words(e, key) for e in ents]
        misses = [i for i, words in enumerate(rows) if words is None]
        if misses:
            for i, words in zip(misses, seed_states([ents[i] for i in misses], key)):
                rows[i] = words
    else:
        rows = seed_states(entropy, spawn_keys)
    return [np.random.Generator(np.random.PCG64(_StateWords(words))) for words in rows]


class StateTable:
    """Read-only seed states of ``stream_for(e, *k)`` for many streams.

    The constructor hashes every (entropy, key) pair of ``entropies`` ×
    ``keys`` in one :func:`seed_states` pass (keys of one length;
    duplicates are hashed once).  Inside ``with table.scope():``,
    :func:`stream_for` and :func:`streams` read a pair's words from the
    table instead of hashing them, which gives bitwise the generator the
    hash would.  The table only skips numpy's ``SeedSequence`` build: a
    ``stream_for`` call takes about 20 µs hashed and 2.4 µs from the
    table (a 2-core x86 host).  A pair the table does not hold
    is a miss and derives exactly as outside a scope, and so does an
    entropy or key element that is not a plain ``int`` (numpy integers,
    bools and floats are never looked up).
    """

    __slots__ = ("_ents", "_keys", "_states")

    def __init__(self, entropies, keys=((0,), (1,))) -> None:
        ents = dict.fromkeys(operator.index(e) for e in entropies)
        keys = dict.fromkeys(tuple(operator.index(k) for k in key) for key in keys)
        if len({len(key) for key in keys}) > 1:
            raise ValueError(f"state-table keys must have one length, got {list(keys)}")
        # Row ``_keys[key] + _ents[entropy]``: key-major, one block per key.
        self._ents = {e: i for i, e in enumerate(ents)}
        self._keys = {key: k * len(ents) for k, key in enumerate(keys)}
        self._states = np.empty((0, _PCG64_WORDS), dtype=np.uint64)
        if ents and keys:
            self._states = seed_states(
                list(ents) * len(keys), [key for key in keys for _ in ents]
            )
        self._states.flags.writeable = False

    @contextlib.contextmanager
    def scope(self) -> "typing.Iterator[StateTable]":
        """Serve lookups from this table, then restore the enclosing scope.

        Scopes nest: an inner table is searched before the tables of the
        scopes around it.  The scope is a :mod:`contextvars` variable, so
        it ends on every exit from the block, exceptions included, and
        threads or tasks started elsewhere do not see it.
        """
        token = _SCOPE.set((self, *_SCOPE.get()))
        try:
            yield self
        finally:
            _SCOPE.reset(token)


#: The tables of the enclosing :meth:`StateTable.scope` blocks, innermost first.
_SCOPE: "contextvars.ContextVar[tuple[StateTable, ...]]" = contextvars.ContextVar(
    "repro_state_tables", default=()
)


def _scoped_words(entropy, keys: tuple) -> "np.ndarray | None":
    """The scoped tables' state words of one stream, or ``None`` on a miss."""
    tables = _SCOPE.get()
    if not tables or type(entropy) is not int:
        return None
    for k in keys:
        if type(k) is not int:
            return None
    for table in tables:
        i = table._ents.get(entropy)
        if i is not None:
            base = table._keys.get(keys)
            if base is not None:
                return table._states[base + i]
    return None
