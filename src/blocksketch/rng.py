"""Seed plumbing.

Every randomized operation in the package draws from a generator keyed by
(seed, stream id...). Distinct stream tuples yield independent streams by
SeedSequence construction, so results never depend on call order, worker
count, or completion order.
"""
from __future__ import annotations

from typing import Union

import numpy as np

RngSeed = Union[int, np.random.SeedSequence]

# Fixed stream ids; values are part of the reproducibility contract.
STREAM_SBM = 0
STREAM_SUBSAMPLE = 1
STREAM_SDP = 2
STREAM_TIEBREAK = 3


def seed_sequence(seed: RngSeed, *stream: int) -> np.random.SeedSequence:
    """SeedSequence for `seed` narrowed to the given stream ids."""
    if isinstance(seed, np.random.SeedSequence):
        key = tuple(seed.spawn_key) + tuple(stream)
        return np.random.SeedSequence(seed.entropy, spawn_key=key)
    return np.random.SeedSequence(seed, spawn_key=tuple(stream))


def rng_for(seed: RngSeed, *stream: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *stream))


def seed_fingerprint(seed: RngSeed) -> tuple:
    """Hashable, JSON-friendly identity of a seed (for records and logs)."""
    if isinstance(seed, np.random.SeedSequence):
        return (seed.entropy, tuple(seed.spawn_key))
    return (int(seed), ())
