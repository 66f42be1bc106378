"""Counter-based random streams.

Replicates are processed in fixed blocks of BLOCK_SIZE. Block b of a run with
master seed s draws from a Philox stream keyed (s, b), so the numbers a block
sees depend only on (seed, block index), never on which worker ran it or how
many workers there are. Merging integer hit counts over blocks is then exact,
which makes whole runs bitwise reproducible at any worker count.

A stream's position is the number of 64-bit Philox words drawn from it;
stream_seek moves a stream to any position without generating the words in
between.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

BLOCK_SIZE = 1 << 14
MAX_SAMPLES = 1 << 36  # 2^22 blocks; the largest preset budget is 10^7

_U64 = 1 << 64
_WORDS = 4             # Philox4x64 yields four 64-bit words per counter step


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
    key = np.array([check_seed(seed), int(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_position(rng: np.random.Generator) -> int:
    """64-bit words drawn so far from rng's Philox stream.

    Philox steps its 256-bit counter before each four-word output, so
    after w > 0 words the counter reads ceil(w / 4) and buffer_pos (the
    next unread word, 4 when the buffer is spent) w - 4 (ceil(w / 4) - 1).
    """
    state = rng.bit_generator.state
    counter = sum(int(c) << (64 * i)
                  for i, c in enumerate(state["state"]["counter"]))
    return _WORDS * counter + state["buffer_pos"] - _WORDS


def stream_seek(rng: np.random.Generator, position: int) -> None:
    """Put rng's Philox stream where drawing `position` words from a fresh
    stream of the same key leaves it. At most one four-word output is
    generated, to refill the buffer."""
    counter, rest = divmod(int(position), _WORDS)
    state = rng.bit_generator.state
    state["state"]["counter"] = np.array(
        [(counter >> (64 * i)) % _U64 for i in range(4)], dtype=np.uint64)
    state["buffer_pos"] = _WORDS
    rng.bit_generator.state = state
    if rest:
        rng.bit_generator.random_raw(rest)
