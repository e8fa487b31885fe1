"""Derived seeds and seeded generators, many at a time.

Every seed the package derives and every generator it builds comes from
numpy's ``SeedSequence`` hash (pool of four 32-bit words), run here on a
whole array of seeds at once in ``uint32`` arithmetic:

* ``derived_seeds(master, phase, rows)[r]`` equals
  ``SeedSequence([master, phase, *rows[r]]).generate_state(1, np.uint64)[0]``;
* ``generators(seeds)[s]`` draws what ``np.random.default_rng(seeds[s])``
  draws: a ``PCG64`` seeded with the four state words ``SeedSequence(seeds[s])``
  would generate, computed here instead of by one ``SeedSequence`` per seed.

numpy keeps this hash stable under its RNG policy (NEP 19), and the tests
compare both functions with numpy's own.  ``numpy.random`` is imported only
when ``generators`` first runs: numpy loads it lazily, and a package import
that pulled it in would pay for it in every command.
"""

from __future__ import annotations

import functools

import numpy as np

_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_MASK = 0xFFFFFFFF
# PCG64 reads its state and increment as four 64-bit words
_PCG64_WORDS = 4


def _constants(init: int, mult: int, n: int) -> list:
    """The first ``n + 1`` values of the hash constant ``init * mult**j``."""
    return [init * pow(mult, j, 1 << 32) & _MASK for j in range(n + 1)]


def _column(values: list) -> np.ndarray:
    column = np.array(values, np.uint32)[:, None]
    column.setflags(write=False)  # shared by every call through the cache
    return column


@functools.lru_cache(maxsize=None)
def _schedule(length: int, n_words: int) -> tuple:
    """The (xor, multiply) constant columns of every hashing step
    ``_state_words`` takes on ``length``-word entropy: the pool fill, one
    step per pool word mixed into the others (its own slot gets constants
    whose result is dropped), one per entropy word beyond the pool, and the
    ``n_words`` output words.  numpy advances one constant per hash in this
    order, so each step's constants follow on from the last step's."""
    a = _constants(_INIT_A, _MULT_A, _POOL * max(length, _POOL))
    steps = [(a[:_POOL], a[1 : _POOL + 1])]
    j = _POOL
    for src in range(_POOL):
        xor, mult = [0] * _POOL, [0] * _POOL
        for dst in range(_POOL):
            if dst != src:
                xor[dst], mult[dst] = a[j], a[j + 1]
                j += 1
        steps.append((xor, mult))
    for _ in range(_POOL, length):
        steps.append((a[j : j + _POOL], a[j + 1 : j + _POOL + 1]))
        j += _POOL
    b = _constants(_INIT_B, _MULT_B, n_words)
    steps.append((b[:-1], b[1:]))
    return tuple((_column(xor), _column(mult)) for xor, mult in steps)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``: xor, multiply, fold the high half."""
    v = (values ^ xor) * mult
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _state_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(column).generate_state(n_words)`` for every column of
    the (L, n) uint32 ``entropy``, as (n_words, n) uint32.  A column shorter
    than the pool may end in zero words: the pool hashes missing words as 0."""
    length = entropy.shape[0]
    fill, *mixes, out = _schedule(length, n_words)
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[: min(length, _POOL)] = entropy[:_POOL]
    pool = _hash(pool, *fill)
    # each pool word mixes into every other, then entropy beyond the pool
    # mixes into every pool word
    for src in range(_POOL):
        kept = pool[src].copy()
        pool = _mix(pool, _hash(kept, *mixes[src]))
        pool[src] = kept
    for src in range(_POOL, length):
        pool = _mix(pool, _hash(entropy[src], *mixes[src]))
    return _hash(pool[np.arange(n_words) % _POOL], *out)


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """The (2k, n) uint32 words of ``_state_words`` as (n, k) uint64, each
    pair low word first (numpy's order)."""
    return np.ascontiguousarray(words.T).astype("<u4", copy=False).view("<u8").astype(np.uint64)


def _words(value: int) -> list:
    """A nonnegative int as little-endian 32-bit words; 0 is one word."""
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def _nonnegative(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _index_rows(index_rows) -> np.ndarray:
    """Rows of seed indices as a 2-D uint32 array; each index in [0, 2**32)."""
    if isinstance(index_rows, np.ndarray):
        rows = index_rows
        if rows.dtype.kind not in "iu":
            raise ValueError(f"seed index must be an integer, got {rows.flat[0].item()!r}")
        bad = (rows < 0) | (rows > _MASK)
        if bad.any():
            raise ValueError(f"seed index must lie in [0, 2**32), got {rows[bad][0].item()!r}")
    else:
        rows = [tuple(row) for row in index_rows]
        for row in rows:
            for i in row:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"seed index must be an integer, got {i!r}")
                if not 0 <= i <= _MASK:
                    raise ValueError(f"seed index must lie in [0, 2**32), got {i!r}")
        if len({len(row) for row in rows}) > 1:
            raise ValueError("seed index rows must have the same length")
        if not rows:
            return np.zeros((0, 0), np.uint32)
    return np.asarray(rows, dtype=np.uint32).reshape(len(rows), -1)


def derived_seeds(master: int, phase: int, index_rows) -> np.ndarray:
    """The 64-bit seed of path ``(master, phase, *row)`` for every row, as a
    (rows,) uint64 array.

    ``master`` is any nonnegative int; ``phase`` and every index lie in
    [0, 2**32), and all rows have the same number of indices.
    """
    master = _nonnegative(master, "master seed")
    phase = _nonnegative(phase, "seed phase")
    if phase > _MASK:
        raise ValueError(f"seed phase must lie in [0, 2**32), got {phase!r}")
    rows = _index_rows(index_rows)
    head = _words(master) + [phase]
    entropy = np.empty((len(head) + rows.shape[1], rows.shape[0]), np.uint32)
    entropy[: len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head) :] = rows.T
    return _as_uint64(_state_words(entropy, 2))[:, 0]


def _pcg64_states(seeds) -> np.ndarray:
    """The (S, 4) uint64 words ``SeedSequence(seed).generate_state(4, np.uint64)``
    of seeds in [0, 2**64), the range of derived seeds."""
    values = seeds
    if not (isinstance(values, np.ndarray) and values.dtype == np.uint64):
        values = [_nonnegative(seed, "seed") for seed in seeds]
        if any(seed >> 64 for seed in values):
            raise ValueError(f"seed must be below 2**64, got {max(values)!r}")
        values = np.array(values, dtype=np.uint64)
    values = values.reshape(-1)
    # a seed below 2**32 is one entropy word, and the pool hashes a missing
    # word as 0, so every seed can be read as its two 32-bit halves
    entropy = np.stack([values & np.uint64(_MASK), values >> np.uint64(32)]).astype(np.uint32)
    return _as_uint64(_state_words(entropy, 2 * _PCG64_WORDS))


@functools.lru_cache(maxsize=None)
def _numpy_random() -> tuple:
    """``Generator``, ``PCG64`` and a seed sequence that hands PCG64 words
    computed in advance, imported on first use."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedState(ISeedSequence):
        """The PCG64 state words of one seed, already generated."""

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the four uint64 words of a PCG64 seed only")
            return self._state

    return Generator, PCG64, PrecomputedState


def generators(seeds) -> list:
    """One ``np.random.Generator`` per integer seed in [0, 2**64), each
    drawing exactly what ``np.random.default_rng(seed)`` draws."""
    generator, pcg64, precomputed = _numpy_random()
    return [generator(pcg64(precomputed(state))) for state in _pcg64_states(seeds)]
