"""Deterministic random streams.

Every seeded entry point in the package draws from a Philox-4x64 counter-based
generator, so that runs are reproducible across platforms and so that an
implementation in another language can replay the same streams by implementing
the (publicly documented) Philox algorithm with the same key layout.

Key layout: the 128-bit Philox key is ``[seed, stream]`` as two uint64 words.
``stream`` lets one seed drive several independent substreams.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator over Philox-4x64 keyed by (seed, stream)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([seed, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# cells drawn per call of ``rng.random`` in ``random_mask``: one float64
# block of 8 MiB
MASK_BLOCK_CELLS = 1 << 20


def random_mask(rng: np.random.Generator, dims, p: float) -> np.ndarray:
    """The boolean mask ``rng.random(dims) < p``, drawn from the same stream
    in row-major blocks of ``MASK_BLOCK_CELLS`` cells, so that it holds one
    float64 block besides the mask."""
    mask = np.empty(dims, dtype=bool)
    flat = mask.reshape(-1)
    for start in range(0, flat.size, MASK_BLOCK_CELLS):
        stop = min(start + MASK_BLOCK_CELLS, flat.size)
        flat[start:stop] = rng.random(stop - start) < p
    return mask
