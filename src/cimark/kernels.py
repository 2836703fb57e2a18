"""Hot inner loops of the generators: XORshift chains and chaotic-iteration
rounds. (The GF(2) rank elimination lives in `gf2.gf2_rank_many`.)

Every kernel is vectorised numpy, one function per job: `xorshift_fill`
for XORshift chains, `ci_fill` for generator rounds.

The XORshift fill jumps ahead with cached byte tables of the round matrix
raised to powers of two: short chains by doubling, long ones by stepping
32-word lanes, whose starts the tables jump to, as one vector. The
generator kernel draws its strategy words in that lane layout and never
puts them into stream order: it builds one-hot flip masks in 32-bit state
words, takes their prefix XOR down each lane and across the lane totals,
and gathers each round's state at its last flip. It works in chunks of
about 2^19 flips, in one buffer block allocated per call, so its working
memory beyond the output is bounded for any stream length. See the
comment above the kernels.
"""

from __future__ import annotations

import functools

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
# A lane stepper fills an (L, K) buffer with L*K words of the chain, word e
# at [e % L, e // L]: K lanes of L = _LANE words whose starts are a T^L chain
# filled by doubling with levels k + log2(L), as (T^L)^(2^k) =
# T^(2^(k + log2 L)). The K lanes take L plain rounds as one uint32 vector.
# Fills of _LANE_MIN words or more step lanes in blocks of _LANE_BLOCK words
# and transpose each block into stream order; shorter fills are faster by
# doubling.
#
# A generator round flips m >= 1 cells and emits the state, so each emitted
# state is the initial state XOR the prefix XOR of one-hot flip masks up to
# the round's last flip. The kernel steps the strategy words in lanes and
# keeps that layout throughout. The cells are reduced mod N in place: as
# w & (N - 1) when N is a power of two, else as w - (w // N) * N (numpy
# floor-divides by a scalar with libdivide, a multiply and shifts per
# element, which makes the three passes about twice as fast as
# np.remainder). For each of the nw = ceil(N/32) big-endian uint32 state
# words w, the mask of a cell is 2^31 >> (cell - 32w), one pass for w = 0
# and two for the others; a shift of 32 or more, or a wrapped negative one,
# gives 0, so cells outside word w add nothing. At N <= 32 a flip thus
# takes two element passes before the prefix XOR for a power of two, and
# four otherwise. The prefix XOR is a blocked scan: L - 1 row XORs down the
# lanes (far faster than bitwise_xor.accumulate along axis 0), then an
# exclusive XOR-scan of the last row over the K lanes. A round's state is
# then one gather at its last flip, XOR its lane's scan value, XOR the
# carried state. Its output row is the leading ceil(N/8) bytes of its state
# words. Chunks
# of about _CHUNK_FLIPS flips bound the working memory beyond the output.
# The cell and mask buffers of a chunk are one block allocated once per
# call (the cell quotient reuses the mask row): separate buffers of a few MB
# each are handed back to the OS on every free and page-faulted in again on
# the next call.
# ---------------------------------------------------------------------------

_CHUNK_FLIPS = 1 << 19
_LANE = 32  # words per lane, a power of two
_LANE_MIN = 1 << 16  # shortest xorshift_fill that steps lanes
_LANE_BLOCK = 1 << 18  # words per transposed block; keeps the transpose in cache


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
    tab.flags.writeable = False  # cached: every caller reads the same tables
    return tab


def _apply_tables(tab, v, out):
    """out = M v for each word of the contiguous uint32 array v."""
    b = v.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    np.take(tab[0], b[:, 0], out=out)
    out ^= tab[1].take(b[:, 1])
    out ^= tab[2].take(b[:, 2])
    out ^= tab[3].take(b[:, 3])


@functools.cache
def _jump_table(k):
    """Byte tables of T^(2^k), built from level k - 1."""
    if k == 0:
        return _byte_tables(np.array(_xs_columns(), dtype=np.uint32))
    prev = _jump_table(k - 1)
    cols = prev[:, 1 << np.arange(8)].ravel()  # image of each basis word
    nxt = np.empty(32, dtype=np.uint32)
    _apply_tables(prev, cols, nxt)
    return _byte_tables(nxt)


def _jump_chain(out, shift):
    """out[i] = T^(i << shift)(out[0]) for i >= 1, by doubling."""
    n = out.size
    levels = (n - 1).bit_length()  # doublings from 1 word to n
    h = 1
    for k in range(shift, shift + levels):
        t = min(h, n - h)
        _apply_tables(_jump_table(k), out[:t], out[h:h + t])
        h += t


def _lanes(state, buf):
    """Fill the (L, K) uint32 buffer with the next L*K words of the chain
    after `state`, word e at [e % L, e // L]."""
    ln, k = buf.shape
    prev = np.full(k, state, dtype=np.uint32)
    _jump_chain(prev, ln.bit_length() - 1)  # lane starts
    t = np.empty(k, dtype=np.uint32)
    for row in buf:
        np.left_shift(prev, 13, out=row)
        row ^= prev
        np.right_shift(row, 17, out=t)
        row ^= t
        np.left_shift(row, 5, out=t)
        row ^= t
        prev = row


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def xorshift_fill(state: int, n: int) -> tuple[np.ndarray, int]:
    """Next n words of the XORshift chain starting after `state`."""
    out = np.empty(n, dtype=np.uint32)
    if n == 0:
        return out, int(state)
    if n < _LANE_MIN:
        out[0] = xorshift_step(int(state))
        _jump_chain(out, 0)
        return out, int(out[-1])
    ln = _LANE
    buf = np.empty(ln * -(-min(n, _LANE_BLOCK) // ln), dtype=np.uint32)
    for s in range(0, n, _LANE_BLOCK):
        e = min(n, s + _LANE_BLOCK)
        full, k = (e - s) // ln, -(-(e - s) // ln)
        lanes = buf[:ln * k].reshape(ln, k)
        _lanes(state, lanes)
        out[s:s + ln * full].reshape(full, ln)[...] = lanes[:, :full].T
        out[s + ln * full:e] = lanes[:e - s - ln * full, full:].ravel()
        state = int(out[e - 1])
    return out, state


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
    nw = -(-n // 32)  # 32-cell state words, cell 32w + j at bit 31 - j
    packed = np.zeros(4 * nw, dtype=np.uint8)
    packed[:nb] = np.packbits(xbits)
    carry = packed.view(">u4").astype(np.uint32)
    ln, sh = _LANE, _LANE.bit_length() - 1
    per_chunk = min(rounds, max(1, _CHUNK_FLIPS // (c + 1)))
    block = np.empty((2, ln * -(-per_chunk * (c + 1) // ln)), dtype=np.uint32)
    for r0 in range(0, rounds, per_chunk):
        r1 = min(rounds, r0 + per_chunk)
        a, s1 = xorshift_fill(s1, r1 - r0)
        last = np.cumsum((a & np.uint32(1)).astype(np.int64) + c)
        last -= 1  # each round's last flip
        k = int(last[-1]) // ln + 1
        cell = block[0, :ln * k].reshape(ln, k)
        mk = block[1, :ln * k].reshape(ln, k)
        _lanes(s2, cell)
        lane = last >> sh
        at = (last & (ln - 1)) * k + lane  # each last flip in the flat buffer
        s2 = int(cell.ravel()[at[-1]])
        if n & (n - 1):
            np.floor_divide(cell, np.uint32(n), out=mk)  # the quotient, until the masks
            mk *= np.uint32(n)
            cell -= mk
        else:
            cell &= np.uint32(n - 1)
        states = np.empty((r1 - r0, nw), dtype=">u4")
        tot = np.zeros(k, dtype=np.uint32)
        for w in range(nw):
            off = np.subtract(cell, np.uint32(32 * w), out=mk) if w else cell
            np.right_shift(np.uint32(1 << 31), off, out=mk)  # 0 outside word w
            for i in range(1, ln):  # prefix XOR down each lane
                mk[i] ^= mk[i - 1]
            np.bitwise_xor.accumulate(mk[-1, :-1], out=tot[1:])  # lanes before each
            got = mk.ravel().take(at)
            got ^= tot.take(lane)
            got ^= carry[w]
            states[:, w] = got
        carry = states[-1].astype(np.uint32)
        rows[r0:r1] = states.view(np.uint8)[:, :nb]
    xbits[:] = np.unpackbits(rows[-1], count=n)
    return rows, s1, s2
