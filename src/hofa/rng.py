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
