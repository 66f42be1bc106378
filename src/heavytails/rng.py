"""Counter-based random streams.

Replicates are processed in fixed blocks of BLOCK_SIZE. Block b of a run with
master seed s draws from a Philox stream keyed (s, b), so the numbers a block
sees depend only on (seed, block index), never on which worker ran it or how
many workers there are. Merging integer hit counts over blocks is then exact,
which makes whole runs bitwise reproducible at any worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

BLOCK_SIZE = 1 << 14

_U64 = 1 << 64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _U64:
        raise InvalidInput(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def check_samples(samples: int) -> int:
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InvalidInput("samples must be a positive integer")
    return int(samples)


def block_stream(seed: int, block_index: int) -> np.random.Generator:
    """Generator for one replicate block, keyed by (seed, block index)."""
    key = np.array([check_seed(seed), int(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream(seed: int, label: int = 0) -> np.random.Generator:
    """One-off stream for non-engine sampling helpers; label picks a lane."""
    return block_stream(seed, (1 << 48) + int(label))
