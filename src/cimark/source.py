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
    """Sequential uint32 word supply with an optional hard limit."""

    def __init__(self, description: str, pull, limit: int = None):
        self.description = description
        self._pull = pull  # callable: n -> np.uint32 array of length <= n
        self._limit = limit
        self.consumed = 0
        self.pull_seconds = 0.0  # time spent inside `pull`

    def words(self, n: int, test_name: str = "test") -> np.ndarray:
        if self._limit is not None and self.consumed + n > self._limit:
            raise InsufficientDataError(test_name, n, self._limit - self.consumed)
        start = time.perf_counter()
        out = self._pull(n)
        self.pull_seconds += time.perf_counter() - start
        if out.size < n:
            raise InsufficientDataError(test_name, n, self.consumed + out.size)
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
    def _from_words(cls, words: np.ndarray, description: str):
        """Serve consecutive slices of a big-endian word array (in memory or
        memory-mapped), converting only the slice each pull asks for."""
        state = {"pos": 0}

        def pull(n):
            start = state["pos"]
            state["pos"] = start + n
            return words[start:start + n].astype(np.uint32)

        return cls(description, pull, limit=words.size)

    @classmethod
    def from_bytes(cls, data: bytes, description: str = "bytes"):
        _warn_partial_word(len(data), description)
        return cls._from_words(np.frombuffer(data, dtype=">u4", count=len(data) // 4),
                              description)

    @classmethod
    def from_file(cls, path, description: str = None):
        """Words of a packed-byte file, memory-mapped rather than read in.

        The mapping lives as long as the source does."""
        description = description or str(path)
        size = os.path.getsize(path)
        _warn_partial_word(size, description)
        if size < 4:  # nothing to map: an empty mapping is an error
            words = np.empty(0, dtype=">u4")
        else:
            words = np.memmap(path, dtype=">u4", mode="r", shape=(size // 4,))
        return cls._from_words(words, description)


def _warn_partial_word(nbytes: int, description: str) -> None:
    if nbytes % 4:
        warnings.warn(f"{description}: ignoring the last {nbytes % 4} byte(s), "
                      f"which do not fill a 32-bit word", stacklevel=3)
