"""Seed handling.

Every stochastic operation takes an explicit seed; per-window streams are
derived from (base_seed, window_end_index) so that a window's draws are
reproducible and independent of the stride, of the other windows swept and
of the data passing through them.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, np.random.Generator, None]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ints, entropy lists, SeedSequences or Generators to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def window_seed(base_seed: int, end_index: int) -> np.random.SeedSequence:
    """Derive the per-window seed used by moving-window sweeps."""
    return np.random.SeedSequence([int(base_seed), int(end_index)])


def child(seed: SeedLike, i: int) -> SeedLike:
    """Child i of a SeedSequence that has spawned none yet, the same stream
    seed.spawn(i + 1)[i] gives, made without spawning the others; any other
    seed is returned as it is."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (i,), pool_size=seed.pool_size
        )
    return seed


def derived_seed(*parts: int) -> np.random.SeedSequence:
    """Derive a named seed stream from integer components."""
    return np.random.SeedSequence([int(p) for p in parts])
