"""Seeded, splittable random streams.

One counter-based (Philox) generator per experiment seed; every consumer
(algorithm, environment, diagnostics) takes its own named substream so that
runs reproduce bit-identically regardless of how many consumers exist or in
which order they are created.

A handle serves `random()` from blocks of `DRAW_AHEAD` uniforms, which are
the doubles that many scalar draws give. Once it has drawn ahead, its
`generator` and `integers` raise RuntimeError: a draw between blocks would
land past the uniforms already taken and shift every later bit. A stream
has one owner, and each owner uses one kind of call.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngHandle"]

DRAW_AHEAD = 256   # uniforms a handle takes from its generator per refill


def _name_key(name: str) -> tuple[int, ...]:
    # stable across processes and platforms (Python's hash() is salted)
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[4 * i: 4 * i + 4], "little") for i in range(4))


class RngHandle:
    """A single-owner random stream identified by (seed, substream path).

    `random()` serves uniforms `DRAW_AHEAD` at a time; after the first one,
    `generator` and `integers` raise RuntimeError naming the stream.
    """

    __slots__ = ("seed", "path", "_gen", "_ahead")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._ahead = None   # iterator over the drawn-ahead uniforms

    def substream(self, name: str) -> "RngHandle":
        """Independent stream derived from this one; same name => same stream."""
        return RngHandle(self.seed, self.path + _name_key(name))

    def _direct(self) -> np.random.Generator:
        if self._ahead is not None:
            raise RuntimeError(
                f"{self!r} serves drawn-ahead uniforms; a direct draw would "
                "shift its bits")
        return self._gen

    @property
    def generator(self) -> np.random.Generator:
        return self._direct()

    def random(self) -> float:
        """One uniform draw in [0, 1)."""
        u = next(self._ahead, None) if self._ahead is not None else None
        if u is None:
            self._ahead = iter(self._gen.random(DRAW_AHEAD).tolist())
            u = next(self._ahead)
        return u

    def integers(self, low: int, high: int) -> int:
        return int(self._direct().integers(low, high))

    def __repr__(self) -> str:
        return f"RngHandle(seed={self.seed}, path={self.path})"
