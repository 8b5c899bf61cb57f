"""Seeded, splittable random streams.

One counter-based (Philox) generator per experiment seed; every consumer
(algorithm, environment, diagnostics) takes its own named substream so that
runs reproduce bit-identically regardless of how many consumers exist or in
which order they are created.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngHandle"]


def _name_key(name: str) -> tuple[int, ...]:
    # stable across processes and platforms (Python's hash() is salted)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[4 * i: 4 * i + 4], "little") for i in range(4))


class RngHandle:
    """A single-owner random stream identified by (seed, substream path)."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def substream(self, name: str) -> "RngHandle":
        """Independent stream derived from this one; same name => same stream."""
        return RngHandle(self.seed, self.path + _name_key(name))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def __repr__(self) -> str:
        return f"RngHandle(seed={self.seed}, path={self.path})"
