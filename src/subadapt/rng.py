"""Seeded random streams with stable derivation for independent consumers.

Every stochastic choice in the package (weight init, noise draws, epoch
shuffles, synthetic sampling) pulls from a RandomSource derived from a
user-visible integer seed plus a short label, so reruns with the same
configuration replay the exact same value sequence.
"""
from __future__ import annotations

import zlib

import numpy as np


def _label_key(label: str | int) -> int:
    if isinstance(label, int):
        return label
    # crc32 is stable across processes, unlike hash()
    return zlib.crc32(label.encode("utf-8"))


def derive_sequence(seed: int, *labels: str | int) -> np.random.SeedSequence:
    """Build a SeedSequence for (seed, labels) that is independent of call order."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_label_key(l) for l in labels))


class RandomSource:
    """Deterministic stream of doubles and permutations (PCG64 underneath)."""

    def __init__(self, seed: int, *labels: str | int):
        self.seed = int(seed)
        self.labels = tuple(labels)
        self._gen = np.random.Generator(np.random.PCG64(derive_sequence(self.seed, *labels)))

    def uniform(self, shape=()) -> np.ndarray:
        """Doubles in [0, 1)."""
        return self._gen.random(size=shape)

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
