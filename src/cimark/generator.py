"""Bit-level pseudo-random generation.

Two layers live here: a 32-bit XORshift source, and the generator built on
top of it, which iterates an N-cell boolean state by flipping one
strategy-chosen cell at a time and emits the state every m flips
(m alternating between c and c+1).
"""

from __future__ import annotations

import copy

import numpy as np

from .kernels import ci_fill, xorshift_fill

# Substituted for a zero seed: zero is the fixed point of the shift-XOR
# round, so it can never be a valid state.
ZERO_SEED_FALLBACK = 0x9E3779B9

_MASK32 = 0xFFFFFFFF


def seed_word(raw: int) -> int:
    """Sanitize a raw 32-bit seed; zero maps to ZERO_SEED_FALLBACK."""
    raw &= _MASK32
    return raw if raw != 0 else ZERO_SEED_FALLBACK


class XorShift32:
    """Marsaglia XORshift on one nonzero 32-bit word (shifts 13, 17, 5).

    The output of a round is the new state.
    """

    __slots__ = ("word",)

    def __init__(self, seed: int):
        self.word = seed_word(seed)

    def fill(self, n: int) -> np.ndarray:
        """Next n outputs as a uint32 array."""
        out, self.word = xorshift_fill(self.word, n)
        return out


def vector_negation(bits) -> np.ndarray:
    """Complement every cell of a boolean state vector."""
    x = np.asarray(bits, dtype=np.uint8)
    return x ^ 1


def chaotic_iterate(x0, f, strategy, steps: int) -> list[np.ndarray]:
    """Iterate per the formal definition: at step n only the cell named by
    the strategy is replaced by the corresponding component of f(state).

    `strategy` yields 1-based cell indices. Returns the list of states
    x^0 .. x^steps.
    """
    x = np.asarray(x0, dtype=np.uint8).copy()
    n = x.size
    states = [x.copy()]
    it = iter(strategy)
    for _ in range(steps):
        s = int(next(it))
        if not 1 <= s <= n:
            raise ValueError(f"strategy index {s} outside [1, {n}]")
        x[s - 1] = f(x)[s - 1]
        states.append(x.copy())
    return states


def seed_from_time(t: int, n: int) -> np.ndarray:
    """State vector from an integer timestamp fragment: t mod 2^n, as n bits
    most significant first."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    t %= 1 << n
    return np.array([(t >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def derive_initial_state(seed1: int, seed2: int, n: int) -> np.ndarray:
    """Default x^0 when none is given: bits drawn from an auxiliary XORshift
    seeded by folding the two user seeds together."""
    words, _ = xorshift_fill(seed_word(seed1 ^ _rotl32(seed2, 16)), (n + 31) // 32)
    return np.unpackbits(words.astype(">u4").view(np.uint8), count=n)


def _rotl32(v: int, k: int) -> int:
    k %= 32
    v &= _MASK32
    return ((v << k) | (v >> (32 - k))) & _MASK32


class CiGenerator:
    """The chaotic-iterations generator.

    One XORshift source draws the chunk length m in {c, c+1}, the other draws
    the cells to flip. After m flips the whole N-bit state is emitted; the
    rounds run in the `ci_fill` kernel, and the last `_unread` cells of x
    are the emitted bits not yet handed out. When emit_seed_first is set, the
    initial state is emitted before the first round (the convention of the
    reference worked example).
    """

    def __init__(self, x0, seed1: int, seed2: int, *,
                 n_cells: int = None, c: int = None,
                 emit_seed_first: bool = False):
        if x0 is None:
            if n_cells is None:
                n_cells = 32
            x0 = derive_initial_state(seed_word(seed1), seed_word(seed2), n_cells)
        self.x = np.asarray(x0, dtype=np.uint8).copy()
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("state must be a 1-D bit vector of length >= 2")
        self.n_cells = self.x.size
        if n_cells is not None and n_cells != self.n_cells:
            raise ValueError("n_cells does not match len(x0)")
        self.c = 3 * self.n_cells if c is None else int(c)
        if self.c < 1:
            raise ValueError("c must be positive")
        self.s1 = seed_word(seed1)
        self.s2 = seed_word(seed2)
        self._unread = self.n_cells if emit_seed_first else 0

    @classmethod
    def from_seeds(cls, seed1: int, seed2: int, n_cells: int = 32,
                   c: int = None) -> "CiGenerator":
        return cls(None, seed1, seed2, n_cells=n_cells, c=c)

    def clone(self) -> "CiGenerator":
        return copy.deepcopy(self)

    def _packed(self, nbits: int) -> np.ndarray:
        """The next nbits output bits packed most significant bit first into
        ceil(nbits/8) bytes; bits past nbits in the last byte are unspecified."""
        if nbits < 0:
            raise ValueError("nbits must be nonnegative")
        n, unread = self.n_cells, self._unread
        prev = np.packbits(self.x)  # x before ci_fill overwrites it
        rounds = max(0, -(-(nbits - unread) // n))
        rows, self.s1, self.s2 = ci_fill(self.x, self.s1, self.s2, self.c, rounds)
        self._unread = unread + rounds * n - nbits
        if n % 8 or unread % 8:
            # states straddle byte boundaries: join them as bits
            bits = np.unpackbits(np.vstack((prev, rows)), axis=1, count=n).reshape(-1)
            return np.packbits(bits[n - unread:n - unread + nbits])
        stream = rows.reshape(-1)
        if unread:
            stream = np.concatenate((prev[(n - unread) // 8:], stream))
        return stream[:-(-nbits // 8)]

    def bits(self, nbits: int) -> np.ndarray:
        """The next nbits output bits as a uint8 array. Successive calls are
        contiguous: bits(a) followed by bits(b) equals bits(a+b)."""
        return np.unpackbits(self._packed(nbits), count=nbits)

    def bytes(self, nbytes: int) -> bytes:
        """Bit stream packed most-significant-bit-first into bytes."""
        return self._packed(8 * nbytes).tobytes()

    def words(self, n: int) -> np.ndarray:
        """Output stream regrouped into big-endian 32-bit words."""
        return self._packed(32 * n).view(">u4").astype(np.uint32)


def kth_bit_oracle(make_generator, k: int) -> int:
    """Direct evaluation of output bit k of the generator that
    make_generator() returns. Its unread bits come first; past them,
    bit k is component (k mod N) of the state reached after chunks
    0 .. floor(k/N), i.e. after the first m_0 + ... + m_{floor(k/N)} flips.
    Computed from flip parity on the one relevant cell, not by streaming."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    g = make_generator()
    n = g.n_cells
    if k < g._unread:
        return int(g.x[n - g._unread + k])
    k -= g._unread
    chunks = k // n + 1
    cell = k % n
    m_words, _ = xorshift_fill(g.s1, chunks)
    total = int(((m_words & np.uint32(1)).astype(np.int64) + g.c).sum())
    s_words, _ = xorshift_fill(g.s2, total)
    flips = int(((s_words % np.uint32(n)) == cell).sum())
    return int(g.x[cell]) ^ (flips & 1)
