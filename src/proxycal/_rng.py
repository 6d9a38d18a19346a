"""Deterministic random-stream addressing.

Every stochastic component draws from a Philox counter-based stream addressed
by ``(seed, path)``. Streams with distinct paths are independent, so work
given its own path may be split across workers in any order without changing
a single bit of output.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Philox emits 64-bit words in counter blocks of four; one uniform double
# consumes one word, so block-aligned positions are multiples of 4.
BLOCK = 4


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=seed & _MASK64,
        spawn_key=tuple(p & _MASK64 for p in path),
    )


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by ``(seed, *path)``."""
    return np.random.Generator(np.random.Philox(seed=_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a fresh 64-bit seed."""
    ss = _seed_sequence(seed, path)
    return int(ss.generate_state(1, np.uint64)[0])

