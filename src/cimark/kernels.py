"""Hot inner loops of the generators: XORshift chains and chaotic-iteration
rounds. (The GF(2) rank elimination lives in `gf2.gf2_rank_many`.)

Every kernel is vectorised numpy; there is one implementation per job.

The XORshift fill jumps ahead with cached byte tables of the round matrix
raised to powers of two and fills a chain of n words by doubling, in about
log2(n) vector passes. The generator kernel reads each emitted state off a
prefix XOR of one-hot flip masks, in chunks of about 2^20 flips, so its
working memory beyond the output is bounded for any stream length. See the
comment above the kernels.
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
# only up to the level a call needs. A chain of n words is then filled by
# doubling: out[0] is one scalar round, and while h < n words are known,
# out[h:2h] = T^h(out[:h]).
#
# A generator round flips m cells and emits the state, so each emitted
# state is the initial state XOR the prefix XOR of one-hot flip masks
# (1 << (63 - cell mod 64) in the state word cell // 64), read at the
# round's last flip. Rounds are processed in chunks of about _CHUNK_FLIPS
# flips, so working memory beyond the rounds * N output is bounded by the
# chunk, whatever the stream length.
# ---------------------------------------------------------------------------

_CHUNK_FLIPS = 1 << 20
_APPLY_BLOCK = 1 << 16  # words per table application; bounds its temporaries
_JUMP = ()  # _JUMP[k]: (4, 256) uint32 byte tables of T^(2^k)


def _xs_columns():
    """Columns of the round matrix: image of each basis vector."""
    return [xorshift_step(1 << j) for j in range(32)]


def _mat_mul_gf2(a, b):
    out = []
    for j in range(32):
        v = b[j]
        acc = 0
        for i in range(32):
            if (v >> i) & 1:
                acc ^= a[i]
        out.append(acc)
    return out


def _mat_pow_gf2(a, e):
    result = [1 << j for j in range(32)]  # identity
    base = list(a)
    while e:
        if e & 1:
            result = _mat_mul_gf2(base, result)
        base = _mat_mul_gf2(base, base)
        e >>= 1
    return result


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


def _xorshift_fill_np(state, out):
    n = out.size
    if n == 0:
        return state
    out[0] = xorshift_step(int(state))
    levels = (n - 1).bit_length()  # doublings from 1 word to n
    h = 1
    for tab in _jump_tables(levels)[:levels]:
        t = min(h, n - h)
        for s in range(0, t, _APPLY_BLOCK):
            e = min(t, s + _APPLY_BLOCK)
            _apply_tables(tab, out[s:e], out[h + s:h + e])
        h += t
    return int(out[n - 1])


def _ci_fill_np(xbits, s1, s2, c, out):
    n = xbits.size
    rounds = out.size // n
    if rounds == 0:
        return s1, s2
    nw = -(-n // 64)  # 64-cell state words, cell 64w + j at bit 63 - j
    packed = np.zeros(8 * nw, dtype=np.uint8)
    packed[:-(-n // 8)] = np.packbits(xbits)
    carry = packed.view(">u8").astype(np.uint64)
    rows = out.reshape(rounds, n)
    per_chunk = max(1, _CHUNK_FLIPS // (c + 1))
    for r0 in range(0, rounds, per_chunk):
        r1 = min(rounds, r0 + per_chunk)
        a = np.empty(r1 - r0, dtype=np.uint32)
        s1 = _xorshift_fill_np(s1, a)
        last = np.cumsum((a & np.uint32(1)).astype(np.int64) + c) - 1
        b = np.empty(int(last[-1]) + 1, dtype=np.uint32)
        s2 = _xorshift_fill_np(s2, b)
        cell = np.remainder(b, np.uint32(n), out=b)
        masks = np.empty(cell.size, dtype=np.uint64)
        states = np.empty((r1 - r0, nw), dtype=np.uint64)
        for w in range(nw):
            # a shift of 64 or more (or a wrapped negative one) gives 0, so
            # cells outside word w contribute nothing
            np.subtract(np.uint64(64 * w + 63), cell, out=masks)
            np.left_shift(np.uint64(1), masks, out=masks)
            np.bitwise_xor.accumulate(masks, out=masks)
            np.bitwise_xor(masks[last], carry[w], out=states[:, w])
        carry = states[-1].copy()
        rows[r0:r1] = np.unpackbits(states.astype(">u8").view(np.uint8),
                                    axis=1, count=n)
    xbits[:] = rows[-1]
    return s1, s2


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def xorshift_fill(state: int, n: int) -> tuple[np.ndarray, int]:
    """Next n words of the XORshift chain starting after `state`."""
    out = np.empty(n, dtype=np.uint32)
    return out, int(_xorshift_fill_np(state, out))


def ci_fill(xbits: np.ndarray, s1: int, s2: int, c: int, rounds: int) -> tuple[np.ndarray, int, int]:
    """Run `rounds` generator rounds, mutating xbits in place.

    Returns (emitted bits as uint8 array of rounds*n entries, new s1, new s2).
    """
    out = np.empty(rounds * xbits.size, dtype=np.uint8)
    s1, s2 = _ci_fill_np(xbits, s1, s2, c, out)
    return out, s1, s2
