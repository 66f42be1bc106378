"""Seeded block streams.

Replicates are processed in fixed blocks of BLOCK_SIZE. Block b of a run with
master seed s draws from a PCG64DXSM stream seeded by SeedSequence(s,
spawn_key=(b,)), so the numbers a block sees depend only on (seed, block
index), never on which worker ran it or how many workers there are. Merging
integer hit counts over blocks is then exact, which makes whole runs bitwise
reproducible at any worker count. The spawn key keeps (s, b) injective,
where a SeedSequence([s, b]) would not be: its list entropy packs [2^32, 5]
and [0, 1 + 5 * 2^32] to the same words.

Each double a stream hands out is one 64-bit word, and
rng.bit_generator.advance(n) skips n words in O(log n) steps without
generating them, so a sampler may jump over draws it does not need.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

BLOCK_SIZE = 1 << 14
MAX_SAMPLES = 1 << 36  # 2^22 blocks; the largest preset budget is 10^7

_U64 = 1 << 64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _U64:
        raise InvalidInput(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def check_samples(samples: int) -> int:
    if (not isinstance(samples, (int, np.integer))
            or not 1 <= samples <= MAX_SAMPLES):
        raise InvalidInput(f"samples must be an integer in [1, 2^36], "
                           f"got {samples!r}")
    return int(samples)


def block_stream(seed: int, block_index: int) -> np.random.Generator:
    """Generator for one replicate block, keyed by (seed, block index)."""
    if not 0 <= int(block_index) < _U64:
        raise InvalidInput(f"block index must be in [0, 2^64), "
                           f"got {block_index}")
    seq = np.random.SeedSequence(check_seed(seed),
                                 spawn_key=(int(block_index),))
    return np.random.Generator(np.random.PCG64DXSM(seq))
