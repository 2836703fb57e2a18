"""Bit-level pseudo-random generation.

Two layers live here: a 32-bit XORshift source, and the generator built on
top of it, which iterates an N-cell boolean state by flipping one
strategy-chosen cell at a time and emits the state every m flips
(m alternating between c and c+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import ci_fill, xorshift_fill, xorshift_step

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

    def next_word(self) -> int:
        self.word = xorshift_step(self.word)
        return self.word

    def fill(self, n: int) -> np.ndarray:
        """Next n outputs as a uint32 array."""
        out, self.word = xorshift_fill(self.word, n)
        return out

    def clone(self) -> "XorShift32":
        c = XorShift32(1)
        c.word = self.word
        return c


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
    aux = XorShift32(seed1 ^ _rotl32(seed2, 16))
    words = aux.fill((n + 31) // 32)
    bits = np.unpackbits(words.astype(">u4").view(np.uint8))
    return bits[:n].copy()


def _rotl32(v: int, k: int) -> int:
    k %= 32
    v &= _MASK32
    return ((v << k) | (v >> (32 - k))) & _MASK32


@dataclass
class StrategyTrace:
    """Per-round record of a generator run: chunk lengths, consumed strategy
    indices (1-based), and the state snapshot at each emission point."""

    m_seq: list[int] = field(default_factory=list)
    s_seq: list[list[int]] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)


class CiGenerator:
    """The chaotic-iterations generator.

    One XORshift source draws the chunk length m in {c, c+1}, the other draws
    the cells to flip. After m flips the whole N-bit state is emitted. When
    emit_seed_first is set, the initial state is emitted before the first
    round (the convention of the reference worked example; the closed-form
    bit-index formula corresponds to emit_seed_first=False, the default).

    m_source / s_source accept injected iterables so tests can drive the
    engine with explicit sequences; production wiring uses the two XORshift
    instances, in which case the rounds run in the `ci_fill` kernel.
    """

    def __init__(self, x0, seed1: int = None, seed2: int = None, *,
                 n_cells: int = None, c: int = None,
                 emit_seed_first: bool = False,
                 m_source=None, s_source=None):
        if x0 is None:
            if n_cells is None:
                n_cells = 32
            x0 = derive_initial_state(seed_word(seed1 or 0), seed_word(seed2 or 0), n_cells)
        self.x = np.asarray(x0, dtype=np.uint8).copy()
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("state must be a 1-D bit vector of length >= 2")
        self.n_cells = self.x.size
        if n_cells is not None and n_cells != self.n_cells:
            raise ValueError("n_cells does not match len(x0)")
        self.c = 3 * self.n_cells if c is None else int(c)
        if self.c < 1:
            raise ValueError("c must be positive")
        self.gen1 = XorShift32(seed1) if seed1 is not None else None
        self.gen2 = XorShift32(seed2) if seed2 is not None else None
        self.emit_seed_first = emit_seed_first
        self._m_source = iter(m_source) if m_source is not None else None
        self._s_source = iter(s_source) if s_source is not None else None
        self._seed_pending = emit_seed_first
        self._pending = np.empty(0, dtype=np.uint8)
        if self._m_source is None and self.gen1 is None:
            raise ValueError("need seed1 or an injected m_source")
        if self._s_source is None and self.gen2 is None:
            raise ValueError("need seed2 or an injected s_source")

    @classmethod
    def from_seeds(cls, seed1: int, seed2: int, n_cells: int = 32,
                   c: int = None) -> "CiGenerator":
        return cls(None, seed1, seed2, n_cells=n_cells, c=c)

    @property
    def injected(self) -> bool:
        return self._m_source is not None or self._s_source is not None

    def clone(self) -> "CiGenerator":
        if self.injected:
            raise ValueError("cannot clone a generator with injected sources")
        g = CiGenerator(self.x, c=self.c, emit_seed_first=self.emit_seed_first,
                        m_source=(), s_source=())
        g._m_source = g._s_source = None
        g.gen1 = self.gen1.clone()
        g.gen2 = self.gen2.clone()
        g._seed_pending = self._seed_pending
        g._pending = self._pending.copy()
        return g

    # -- single round, python path (also handles injected sequences) --------

    def _draw_m(self) -> int:
        if self._m_source is not None:
            return int(next(self._m_source))
        return (self.gen1.next_word() & 1) + self.c

    def _draw_cell(self) -> int:
        """0-based index of the next cell to flip."""
        if self._s_source is not None:
            s = int(next(self._s_source)) - 1  # injected values are 1-based
            if not 0 <= s < self.n_cells:
                raise ValueError(f"strategy index {s + 1} outside [1, {self.n_cells}]")
            return s
        return self.gen2.next_word() % self.n_cells

    def round(self, trace: StrategyTrace = None) -> np.ndarray:
        """One round: draw m, flip m strategy-chosen cells, emit the state."""
        m = self._draw_m()
        flips = [self._draw_cell() for _ in range(m)]
        for s in flips:
            self.x[s] ^= 1
        if trace is not None:
            trace.m_seq.append(m)
            trace.s_seq.append([s + 1 for s in flips])
            trace.states.append(self.x.copy())
        return self.x.copy()

    # -- bulk bit stream -----------------------------------------------------

    def bits(self, nbits: int) -> np.ndarray:
        """The next nbits output bits as a uint8 array. Successive calls are
        contiguous: bits(a) followed by bits(b) equals bits(a+b)."""
        if nbits < 0:
            raise ValueError("nbits must be nonnegative")
        n = self.n_cells
        parts = [self._pending]
        have = self._pending.size
        if nbits > have and self._seed_pending:
            parts.append(self.x.copy())
            have += n
            self._seed_pending = False
        if nbits > have:
            rounds = -(-(nbits - have) // n)
            if self.injected:
                parts.extend(self.round() for _ in range(rounds))
            else:
                emitted, a, b = ci_fill(self.x, self.gen1.word, self.gen2.word,
                                        self.c, rounds)
                self.gen1.word, self.gen2.word = a, b
                parts.append(emitted)
        parts = [p for p in parts if p.size] or parts  # fresh rounds alone: no copy
        stream = np.concatenate(parts) if len(parts) > 1 else parts[0]
        # a copy, so the carried tail does not pin the whole stream
        self._pending = stream[nbits:].copy()
        return stream[:nbits]

    def bytes(self, nbytes: int) -> bytes:
        """Bit stream packed most-significant-bit-first into bytes."""
        return np.packbits(self.bits(8 * nbytes)).tobytes()

    def words(self, n: int) -> np.ndarray:
        """Output stream regrouped into big-endian 32-bit words."""
        return np.frombuffer(self.bytes(4 * n), dtype=">u4").astype(np.uint32)


def kth_bit_oracle(make_generator, k: int) -> int:
    """Direct evaluation of output bit k from a fresh generator configuration
    (emit_seed_first=False): component (k mod N) of the state reached after
    chunks 0 .. floor(k/N), i.e. after the first m_0 + ... + m_{floor(k/N)}
    flips. Computed from flip parity on the one relevant cell, not by
    streaming."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    g = make_generator()
    n = g.n_cells
    chunks = k // n + 1
    cell = k % n
    if g.injected:
        state = None
        for _ in range(chunks):
            state = g.round()
        return int(state[cell])
    m_words, _ = xorshift_fill(g.gen1.word, chunks)
    total = int(((m_words & np.uint32(1)).astype(np.int64) + g.c).sum())
    s_words, _ = xorshift_fill(g.gen2.word, total)
    flips = int(((s_words % np.uint32(n)) == cell).sum())
    return int(g.x[cell]) ^ (flips & 1)
