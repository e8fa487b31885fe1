"""Derived seeds and seeded generators, from numpy's own ``SeedSequence``
and ``default_rng``.

A run derives one seed per training scene, per model and per replication,
not one per stream, so each seed is one ``SeedSequence`` and each generator
one ``default_rng``.  numpy keeps both stable under its RNG policy
(NEP 19).  ``numpy.random`` is imported only when a function here first
runs: numpy loads it lazily, and a package import that pulled it in would
pay for it in every command.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFF


def _nonnegative(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _index_rows(index_rows) -> list:
    """Rows of seed indices, each in [0, 2**32), all of one length."""
    if isinstance(index_rows, np.ndarray):
        index_rows = index_rows.tolist()
    rows = [tuple(row) for row in index_rows]
    for row in rows:
        for i in row:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise ValueError(f"seed index must be an integer, got {i!r}")
            if not 0 <= i <= _MASK:
                raise ValueError(f"seed index must lie in [0, 2**32), got {i!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("seed index rows must have the same length")
    return rows


def derived_seeds(master: int, phase: int, index_rows) -> np.ndarray:
    """``SeedSequence([master, phase, *row]).generate_state(1, np.uint64)[0]``,
    the 64-bit seed of path ``(master, phase, *row)``, for every row, as a
    (rows,) uint64 array.

    ``master`` is any nonnegative int; ``phase`` and every index lie in
    [0, 2**32), and all rows have the same number of indices.  A phase keeps
    one row width: ``SeedSequence`` pads its four-word pool with zeros, so
    under a master below 2**32 the rows ``(5,)`` and ``(5, 0)`` derive the
    same seed.
    """
    from numpy.random import SeedSequence

    master = _nonnegative(master, "master seed")
    phase = _nonnegative(phase, "seed phase")
    if phase > _MASK:
        raise ValueError(f"seed phase must lie in [0, 2**32), got {phase!r}")
    return np.array(
        [
            SeedSequence([master, phase, *row]).generate_state(1, np.uint64)[0]
            for row in _index_rows(index_rows)
        ],
        dtype=np.uint64,
    )


def generators(seeds) -> list:
    """``np.random.default_rng(seed)`` for every integer seed in [0, 2**64)."""
    from numpy.random import default_rng

    values = [_nonnegative(seed, "seed") for seed in seeds]
    for seed in values:
        if seed >> 64:
            raise ValueError(f"seed must be below 2**64, got {seed!r}")
    return [default_rng(seed) for seed in values]
