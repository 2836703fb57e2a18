"""Word sources feeding the statistical tests.

A source wraps either a live generator or a file of packed bytes and hands
out consecutive big-endian 32-bit words. Tests that would need more words
than the source can supply raise InsufficientDataError instead of returning
a verdict.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np


class InsufficientDataError(Exception):
    def __init__(self, test_name: str, requested: int, available: int):
        self.test_name = test_name
        self.requested = requested
        self.available = available
        super().__init__(
            f"{test_name}: needs {requested} words, only {available} available"
        )


class BitStreamSource:
    """Sequential uint32 word supply. It runs out when a pull hands back
    fewer words than asked."""

    def __init__(self, description: str, pull):
        self.description = description
        self._pull = pull  # callable: n -> np.uint32 array of length <= n
        self.consumed = 0
        self.pull_seconds = 0.0  # time spent inside `pull`

    def words(self, n: int, test_name: str = "test") -> np.ndarray:
        start = time.perf_counter()
        out = self._pull(n)
        self.pull_seconds += time.perf_counter() - start
        if out.size < n:
            raise InsufficientDataError(test_name, n, out.size)
        self.consumed += n
        return out

    def reals(self, n: int, test_name: str = "test") -> np.ndarray:
        """Words mapped to [0,1) by w / 2^32."""
        return self.words(n, test_name).astype(np.float64) / 4294967296.0

    @classmethod
    def from_generator(cls, gen, description: str = None):
        """Wrap anything exposing words(n) -> uint32 array (CiGenerator) or
        fill(n) (XorShift32)."""
        if hasattr(gen, "words"):
            pull = gen.words
        elif hasattr(gen, "fill"):
            pull = gen.fill
        else:
            raise TypeError("generator must expose words(n) or fill(n)")
        if description is None:
            description = type(gen).__name__
        return cls(description, pull)

    @classmethod
    def from_file(cls, path):
        """Words of a packed-byte file, memory-mapped rather than read in;
        each pull converts only the words it hands out. A pull past the end
        hands back the words left and moves on only after a full read, so a
        refused ask leaves the source where it was.

        The mapping lives as long as the source does."""
        size = os.path.getsize(path)
        if size % 4:
            warnings.warn(f"{path}: ignoring the last {size % 4} byte(s), "
                          f"which do not fill a 32-bit word", stacklevel=2)
        if size < 4:  # nothing to map: an empty mapping is an error
            words = np.empty(0, dtype=">u4")
        else:
            words = np.memmap(path, dtype=">u4", mode="r", shape=(size // 4,))
        pos = 0

        def pull(n):
            nonlocal pos
            out = words[pos:pos + n]
            if out.size == n:  # a short read is refused: convert nothing
                pos += n
                out = out.astype(np.uint32)
            return out

        return cls(str(path), pull)
