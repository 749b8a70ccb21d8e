"""Seeded random number generation.

All randomness in the package flows through PCG64 generators created here so
that runs are reproducible from a single 64-bit seed. Independent consumers
(splitting, noise injection, training, initialization) get their own streams
derived from the seed, so adding draws to one consumer never shifts another.
A checkpoint stores the training stream's ``bit_generator.state``.
"""

from __future__ import annotations

import numpy as np

# Fixed stream ids per consumer; part of the reproducibility contract.
STREAM_SPLIT = 0
STREAM_NOISE = 1
STREAM_TRAIN = 2
STREAM_INIT = 3


def spawn_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic per pair."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))
