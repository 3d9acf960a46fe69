"""Reproducible random-number streams for block-parallel Monte Carlo.

Paths are processed in fixed-size blocks.  Each block owns an independent
PCG64DXSM stream seeded by ``SeedSequence(seed, spawn_key=(block,))``, so
results are bit-identical for a fixed seed no matter how many workers
process the blocks, and no matter in which order they finish.
"""

from __future__ import annotations

import os

import numpy as np

BLOCK_SIZE = 8192

_ENV_WORKERS = "INTERVAL_AVOID_THREADS"


def block_stream(seed: int, block_index: int) -> np.random.Generator:
    """Independent PCG64DXSM stream for one block of paths, seeded by
    ``SeedSequence(seed, spawn_key=(block_index,))``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block_index),))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def iter_blocks(n: int, block_size: int = BLOCK_SIZE):
    """Yield (block_index, count) covering ``n`` paths."""
    for index, offset in enumerate(range(0, n, block_size)):
        yield index, min(block_size, n - offset)


def worker_count() -> int:
    """Worker cap from INTERVAL_AVOID_THREADS, at most the CPU count.

    Unset or empty means sequential execution; any other value that is not
    an integer >= 1 is a ValueError.
    """
    raw = os.environ.get(_ENV_WORKERS)
    if not raw:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested < 1:
        raise ValueError(f"{_ENV_WORKERS} must be an integer >= 1 (got {raw!r})")
    return min(requested, os.cpu_count() or 1)
