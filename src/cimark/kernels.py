"""Hot inner loops of the generators: XORshift chains and chaotic-iteration
rounds. (The GF(2) rank elimination lives in `gf2.gf2_rank_many`.)

Every kernel is vectorised numpy; there is one implementation per job.

The XORshift fill jumps ahead with cached byte tables of the round matrix
raised to powers of two: short chains by doubling, long ones by stepping
32-word lanes, whose starts the tables jump to, as one vector. The
generator kernel XOR-reduces one-hot flip masks per round and accumulates
the rounds, in chunks of about 2^19 flips, so its working memory beyond
the output is bounded for any stream length. See the comment above them.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF

# No compiled kernels exist; the constant stays for callers that report
# which kernel path ran.
NUMBA_ENABLED = False


def xorshift_step(word: int) -> int:
    """One 32-bit shift-XOR round (shifts 13 left, 17 right, 5 left)."""
    word &= _MASK32
    word ^= (word << 13) & _MASK32
    word ^= word >> 17
    word ^= (word << 5) & _MASK32
    return word


# ---------------------------------------------------------------------------
# kernels
#
# The XORshift round is a linear map T over GF(2)^32. Level k of the jump
# cache holds T^(2^k) as four 256-entry byte tables: the image of a word is
# the XOR of one table lookup per byte. Level k+1 is found by applying level
# k to its own columns, so the cache is built in about a millisecond and
# only up to the level a call needs. A chain from a given out[0] is filled
# by doubling: while h words are known, out[h:2h] = T^h(out[:h]).
#
# Fills of _LANE_MIN words or more run in blocks of _LANE_BLOCK words, each
# split into K = ceil(len/L) lanes of L = _LANE words. The lane starts are a
# T^L chain filled by doubling with levels k + log2(L), as
# (T^L)^(2^k) = T^(2^(k + log2 L)). The K lanes take L plain rounds as one
# uint32 vector, into an (L, K) buffer whose transpose is the block. Shorter
# fills are faster by doubling.
#
# A generator round flips m >= 1 cells and emits the state, so each emitted
# state is the initial state XOR the prefix XOR of one-hot flip masks
# (1 << (63 - cell mod 64) in the state word cell // 64), XOR-reduced per
# round (reduceat at each round's first flip) and then accumulated over
# rounds. The strategy word mod N is w - (w // N) * N: numpy floor-divides
# by a scalar with libdivide (a multiply and shifts per element), which
# makes the three passes about twice as fast as np.remainder. A round's
# output row is the leading ceil(N/8) big-endian bytes of its state words.
# Chunks of about _CHUNK_FLIPS flips, in buffers allocated once per call,
# bound the working memory beyond the output.
# ---------------------------------------------------------------------------

_CHUNK_FLIPS = 1 << 19
_LANE = 32  # words per lane, a power of two
_LANE_MIN = 1 << 16  # shortest fill that steps lanes
_LANE_BLOCK = 1 << 18  # words per lane block; keeps the transpose in cache
_JUMP = ()  # _JUMP[k]: (4, 256) uint32 byte tables of T^(2^k)


def _xs_columns():
    """Columns of the round matrix: image of each basis vector."""
    return [xorshift_step(1 << j) for j in range(32)]


def _byte_tables(cols):
    """(4, 256) tables of the matrix with uint32 columns `cols`: row b maps
    the value of byte b (b = 0 least significant) to its image."""
    tab = np.zeros((4, 256), dtype=np.uint32)
    c = cols.reshape(4, 8, 1)
    for i in range(8):
        tab[:, 1 << i:2 << i] = tab[:, :1 << i] ^ c[:, i]
    return tab


def _apply_tables(tab, v, out):
    """out = M v for each word of the contiguous uint32 array v."""
    b = v.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    np.take(tab[0], b[:, 0], out=out)
    out ^= tab[1].take(b[:, 1])
    out ^= tab[2].take(b[:, 2])
    out ^= tab[3].take(b[:, 3])


def _jump_tables(levels):
    """Byte tables of T^(2^k) for k < levels (cached, built on demand)."""
    global _JUMP
    tabs = _JUMP
    if len(tabs) < levels:
        tabs = list(tabs) or [_byte_tables(np.array(_xs_columns(), dtype=np.uint32))]
        while len(tabs) < levels:
            prev = tabs[-1]
            cols = prev[:, 1 << np.arange(8)].ravel()  # image of each basis word
            nxt = np.empty(32, dtype=np.uint32)
            _apply_tables(prev, cols, nxt)
            tabs.append(_byte_tables(nxt))
        tabs = tuple(tabs)
        _JUMP = tabs  # one assignment: a racing caller only rebuilds
    return tabs


def _jump_chain(out, shift):
    """out[i] = T^(i << shift)(out[0]) for i >= 1, by doubling."""
    n = out.size
    levels = (n - 1).bit_length()  # doublings from 1 word to n
    h = 1
    for tab in _jump_tables(shift + levels)[shift:shift + levels]:
        t = min(h, n - h)
        _apply_tables(tab, out[:t], out[h:h + t])
        h += t


def _xorshift_fill_np(state, out):
    n = out.size
    if n == 0:
        return state
    if n < _LANE_MIN:
        out[0] = xorshift_step(int(state))
        _jump_chain(out, 0)
        return int(out[-1])
    ln = _LANE
    buf = np.empty((ln, -(-min(n, _LANE_BLOCK) // ln)), dtype=np.uint32)
    tmp = np.empty(buf.shape[1], dtype=np.uint32)
    for s in range(0, n, _LANE_BLOCK):
        e = min(n, s + _LANE_BLOCK)
        full, lanes = (e - s) // ln, buf[:, :-(-(e - s) // ln)]
        t = tmp[:lanes.shape[1]]
        prev = np.full(t.size, state, dtype=np.uint32)
        _jump_chain(prev, ln.bit_length() - 1)  # lane starts
        for row in lanes:
            np.left_shift(prev, 13, out=row)
            row ^= prev
            np.right_shift(row, 17, out=t)
            row ^= t
            np.left_shift(row, 5, out=t)
            row ^= t
            prev = row
        out[s:s + ln * full].reshape(full, ln)[...] = lanes[:, :full].T
        out[s + ln * full:e] = lanes[:e - s - ln * full, full:].ravel()
        state = int(out[e - 1])
    return state


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def xorshift_fill(state: int, n: int) -> tuple[np.ndarray, int]:
    """Next n words of the XORshift chain starting after `state`."""
    out = np.empty(n, dtype=np.uint32)
    return out, int(_xorshift_fill_np(state, out))


def ci_fill(xbits: np.ndarray, s1: int, s2: int, c: int, rounds: int) -> tuple[np.ndarray, int, int]:
    """Run `rounds` generator rounds, mutating xbits in place.

    Returns (states as MSB-first packed uint8 rows of ceil(n/8) bytes, new s1, new s2).
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    n = xbits.size
    nb = -(-n // 8)
    rows = np.empty((rounds, nb), dtype=np.uint8)
    if rounds == 0:
        return rows, s1, s2
    nw = -(-n // 64)  # 64-cell state words, cell 64w + j at bit 63 - j
    packed = np.zeros(8 * nw, dtype=np.uint8)
    packed[:nb] = np.packbits(xbits)
    carry = packed.view(">u8").astype(np.uint64)
    per_chunk = min(rounds, max(1, _CHUNK_FLIPS // (c + 1)))
    cells = np.empty(per_chunk * (c + 1), dtype=np.uint32)
    masks = np.empty(cells.size, dtype=np.uint64)
    for r0 in range(0, rounds, per_chunk):
        r1 = min(rounds, r0 + per_chunk)
        a, s1 = xorshift_fill(s1, r1 - r0)
        m = (a & np.uint32(1)).astype(np.int64) + c
        first = np.cumsum(m) - m  # each round's first flip
        flips = int(first[-1] + m[-1])
        cell, mask = cells[:flips], masks[:flips]
        s2 = _xorshift_fill_np(s2, cell)
        quot = masks.view(np.uint32)[:flips]  # free until the masks are made
        np.floor_divide(cell, np.uint32(n), out=quot)
        quot *= np.uint32(n)
        cell -= quot
        states = np.empty((nw, r1 - r0), dtype=np.uint64)
        for w in range(nw):
            # a shift of 64 or more (or a wrapped negative one) gives 0, so
            # cells outside word w contribute nothing
            np.subtract(np.uint64(64 * w + 63), cell, out=mask)
            np.left_shift(np.uint64(1), mask, out=mask)
            np.bitwise_xor.reduceat(mask, first, out=states[w])
            np.bitwise_xor.accumulate(states[w], out=states[w])
            states[w] ^= carry[w]
        carry = states[:, -1].copy()
        rows[r0:r1] = states.T.astype(">u8", order="C").view(np.uint8)[:, :nb]
    xbits[:] = np.unpackbits(rows[-1], count=n)
    return rows, s1, s2
