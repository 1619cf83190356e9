"""Deterministic seed derivation for per-task RNG streams.

Every sampled family (probes, walk paths, pair samples) derives one child
seed per index from the run seed via an integer mix, so results are
bit-reproducible regardless of iteration order.  Python's
`hash` is avoided on purpose: string hashing is salted per process.
"""

import random

_MIX_A = 6364136223846793005
_MIX_B = 1442695040888963407
_MASK = (1 << 63) - 1


def derive_seed(seed: int, *indices: int) -> int:
    h = (seed * _MIX_A + _MIX_B) & _MASK
    for i in indices:
        h = ((h ^ (i + 0x9E3779B97F4A7C15)) * _MIX_A + _MIX_B) & _MASK
        h ^= h >> 29
    return h


def rng_for(seed: int, *indices: int) -> random.Random:
    return random.Random(derive_seed(seed, *indices))
