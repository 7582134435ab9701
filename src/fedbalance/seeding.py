"""Derivation of independent random streams from a single master seed.

Every stochastic step of an experiment (data generation, partitioning,
fold shuffling, model init, batch shuffling, resampling) draws from its
own stream, keyed by the master seed plus a tuple of labels such as
``("ptrain", fold, sampler, round, client)``.  Streams with different
keys are statistically independent, and a stream's output never depends
on which other streams were consumed, so trials can be run alone or in
any combination with identical results.
"""

from __future__ import annotations

import zlib

import numpy as np
import numpy.random  # noqa: F401  loaded with the package, not lazily by the first draw


def _encode_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (bool, np.bool_)):
        return int(part)
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError(f"negative key part: {value}")
        return value
    raise TypeError(f"unsupported key part type: {type(part).__name__}")


def seed_sequence(master_seed: int, *parts) -> np.random.SeedSequence:
    """SeedSequence for the stream keyed by (master_seed, *parts).

    Parts may be non-negative ints or short strings; strings are hashed
    with CRC32 so the key is stable across runs and platforms.
    """
    key = tuple(_encode_part(p) for p in parts)
    return np.random.SeedSequence(master_seed, spawn_key=key)


def derive_rng(master_seed: int, *parts) -> np.random.Generator:
    """A fresh PCG64 generator for the stream keyed by (master_seed, *parts)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *parts)))


def derive_seed(master_seed: int, *parts) -> int:
    """A 64-bit integer seed for APIs that take a plain seed."""
    words = seed_sequence(master_seed, *parts).generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)
