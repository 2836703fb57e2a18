"""Hot inner loops of the generators: XORshift chains and chaotic-iteration
rounds. (The GF(2) rank elimination lives in `gf2.gf2_rank_many`.)

Every kernel is vectorised numpy, one function per job: `xorshift_fill`
for XORshift chains, `ci_fill` for generator rounds.

Every XORshift draw is one table read. Cached byte tables of the round
matrix raised to powers of two fill the chain of every 32nd word by
doubling, and one more cached table map, E_b, reads the low b <= 32 bits
of the 32 words from each word of that chain: full words (b = 32) for
`xorshift_fill`, `ci_fill`'s length bits (b = 1) and the watermark's
strategy cells (b = log2 n, or 32 then mod n). The generator kernel draws
its strategy words in a lane layout and never puts them into stream order.
It works through the flips in chunks of a fixed power of two, one lane row
at a time: each row is stepped, reduced to cells, turned into one-hot flip
masks in 32-bit state words and prefix-XORed while it is in cache. Each
round's state is gathered at its last flip, and the lane starts are carried
from chunk to chunk by one table jump. Its working memory beyond the output
is bounded for any stream length and any round length. See the comment
above the kernels.
"""

from __future__ import annotations

import functools
import math
import mmap

import numpy as np

_MASK32 = 0xFFFFFFFF

# ci_fill counts a call's flips in int64: rounds * (c + 1) stays below this.
_FLIP_LIMIT = 1 << 63

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
# by doubling: while h words are known, out[h:2h] = T^h(out[:h]). With
# levels k + s the same doubling fills a T^(2^s) chain, as (T^(2^s))^(2^k)
# = T^(2^(k + s)).
#
# The low b bits of T^t(z) are a linear function of z, so one map E_b
# gives the low b bits of 32 consecutive words at once: column t of E_b(z)
# is T^t(z) & (2^b - 1). Its byte tables hold a row of 32 uint8, uint16 or
# uint32 values per byte value, XORed as 4, 8 or 16 uint64 words. E_b is
# applied to each word of a T^32 chain, or of several chains at once (the
# watermark key schedule reads one per seed), in blocks of _READ_BLOCK
# chain words, so that a block's lookups stay in cache. Every XORshift draw
# is such a read: xorshift_fill reads full words (b = 32) from the T^32
# chain of its words, filled by doubling with levels k + 5; the watermark's
# strategy cells are b = log2 n bits, or full words mod n when n is not a
# power of two; and a generator round's length bit is b = 1 (below).
#
# A generator round flips m >= 1 cells and emits the state, so each emitted
# state is the initial state XOR the prefix XOR of one-hot flip masks up to
# the round's last flip. The kernel takes the flips in chunks of F =
# _CHUNK_FLIPS flips, halved once per doubling of nw = ceil(N/32), the
# big-endian uint32 state words, so that the prefix buffer of nw * F words
# stays at 4 MiB; a round may span chunks. A chunk is K = F / L lanes, flip
# e of the chunk at row e % L, lane e // L, for L = _LANE. The lane starts
# are a T^L chain: the call's first chunk fills them by doubling with levels
# k + log2 L, and each later one takes them from the previous
# chunk's by one jump, T^F. The last chunk steps only the lanes the
# remaining rounds can reach.
#
# Each of the L rows makes one trip while it is in cache: the 6 shift-XOR
# ufuncs step the previous row into a scratch row; the cells are that row
# mod N, as w & (N - 1) when N is a power of two, else as w - (w // N) * N
# (numpy floor-divides by a scalar with libdivide, a multiply and shifts per
# element, which makes the three passes about twice as fast as
# np.remainder), written into the row's prefix row; the mask of a cell in
# state word w is 2^31 >> (cell - 32w), where a shift of 32 or more, or a
# wrapped negative one, gives 0, so cells outside word w add nothing; and
# the masks are XORed with the prefix row above. The prefix row is the
# scratch of the step too, and the cells live in the last word's prefix row
# until its masks overwrite them. The lane totals are an exclusive XOR-scan
# of the last prefix row over the K lanes (Blelloch's blocked scan); they
# take the place of the raw rows once the pass is done, and the raw rows
# take the jump's output. So beyond the 4 MiB buffer a chunk needs the lane
# starts and max(2, nw) more lane rows. A round's state is one gather at
# its last flip, XOR its lane's total, XOR the state carried into the
# chunk; its output row is the leading ceil(N/8) bytes of its state words.
# At each chunk's end the carried state takes the XOR of all its flips.
#
# A round reads only the low bit of its length word (m = c + bit), so its
# length bits are E_1 of the T^32 chain of the length words: 4 row lookups
# per 32 rounds, not a full-word read. Rounds are taken in blocks of
# _LENGTH_BLOCK, with last flips counted as int64 from the call's first. The first block fills its chain by doubling; each later
# block's chain is the one before jumped by T^_LENGTH_BLOCK, one table pass,
# so _LENGTH_BLOCK must stay a power of two (the jump tables are of
# T^(2^k)). The returned strategy word is rebuilt from its lane start with
# at most L rounds. Every buffer is allocated once per call, no larger than
# the call's flips need: a short call neither maps nor faults in 4 MiB.
# ---------------------------------------------------------------------------

_CHUNK_FLIPS = 1 << 20
_LANE = 32  # words per lane, a power of two
# Up to this many cells the prefix buffer stays at 4 MiB; past it a chunk
# cannot shrink below one lane (_LANE flips) and the buffer grows as 4N bytes.
_MAX_CELLS = 32 * (_CHUNK_FLIPS // _LANE)
# Rounds per block of length bits: the block's last flips take 128 KiB as
# int64. A power of two: the next block's chain is this one's jumped by it.
_LENGTH_BLOCK = 1 << 14
# Chain words per block of a low-bits read, whose lookups then stay in
# cache: the sweep's 15-row read takes 0.20-0.29 ms in blocks of 4,096,
# 0.58 ms in blocks of 16,384 or more.
_READ_BLOCK = 1 << 12


def _xs_columns():
    """Columns of the round matrix: image of each basis vector."""
    return [xorshift_step(1 << j) for j in range(32)]


def _byte_tables(cols):
    """(4, 256, ...) tables of the linear map with columns `cols`, the images
    of the 32 basis words (each a word or a row of values): row b maps the
    value of byte b (b = 0 least significant) to its image.

    The tables live in zeroed pages of their own, outside the malloc heap.
    A cached table there (128 KiB at b = 32) splits the free blocks that
    large arrays reuse: a battery-xorshift process then peaked 6-11 MB
    higher in 15-50% of runs, as it also did when a fill drew its chain
    before allocating its output."""
    shape = (4, 256) + cols.shape[1:]
    tab = np.frombuffer(mmap.mmap(-1, math.prod(shape) * cols.itemsize),
                        dtype=cols.dtype).reshape(shape)
    c = cols.reshape(4, 8, 1, *cols.shape[1:])
    for i in range(8):
        tab[:, 1 << i:2 << i] = tab[:, :1 << i] ^ c[:, i]
    tab.flags.writeable = False  # cached: every caller reads the same tables
    return tab


def _apply_tables(tab, v, out):
    """out = M v for each word of the contiguous uint32 array v, of any
    shape: one image, a word or a row of values, per word."""
    b = v.astype("<u4", copy=False).view(np.uint8).reshape(v.shape + (4,))
    # a byte always indexes the 256 rows; take's default mode would also
    # write to a buffered copy of out
    np.take(tab[0], b[..., 0], axis=0, out=out, mode="clip")
    out ^= tab[1].take(b[..., 1], axis=0)
    out ^= tab[2].take(b[..., 2], axis=0)
    out ^= tab[3].take(b[..., 3], axis=0)


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


@functools.cache
def _low_bit_tables(b):
    """(4, 256, 32) byte tables of E_b, which reads the low b bits of 32
    words at once, 0 <= b <= 32: column t of E_b(z) is T^t(z) & (2^b - 1),
    for t = 0..31. Entries are uint8 up to b = 8, uint16 up to 16, else
    uint32."""
    cols = np.empty((32, 32), dtype=np.uint8 if b <= 8 else np.uint16 if b <= 16 else np.uint32)
    w = np.uint32(1) << np.arange(32, dtype=np.uint32)  # basis words, stepped
    nxt, t = np.empty(32, dtype=np.uint32), np.empty(32, dtype=np.uint32)
    mask = np.uint32((1 << b) - 1)
    for i in range(32):
        cols[:, i] = w & mask
        _step(w, nxt, t)
        w, nxt = nxt, w
    return _byte_tables(cols)


def _jump_chain(out, shift):
    """out[i] = T^(i << shift)(out[0]) for i >= 1, by doubling; out[i] is a
    word or a row of words, one chain per column."""
    n = len(out)
    levels = (n - 1).bit_length()  # doublings from 1 word to n
    h = 1
    for k in range(shift, shift + levels):
        t = min(h, n - h)
        _apply_tables(_jump_table(k), out[:t], out[h:h + t])
        h += t


def _step(prev, out, t):
    """out = one XORshift round of each word of prev; t is scratch."""
    np.left_shift(prev, 13, out=out)
    out ^= prev
    np.right_shift(out, 17, out=t)
    out ^= t
    np.left_shift(out, 5, out=t)
    out ^= t


def _length_chain(state, n):
    """Every 32nd word of the n >= 1 words of the chain after `state`: z[q]
    is word 32q, word 0 being the first after `state`. For a sequence of
    states z[q] is a row, one chain per column."""
    z = np.empty((-(-n // 32),) + np.shape(state), dtype=np.uint32)
    if np.ndim(state):
        z[0] = [xorshift_step(int(word)) for word in state]
    else:
        z[0] = xorshift_step(int(state))
    _jump_chain(z, 5)
    return z


def _low_bits(z, n, b, out=None):
    """Low b bits (0 <= b <= 32) of the first n >= 1 words of the chain
    whose every 32nd word is z (see _length_chain), in stream order, written
    to `out` (n values) if given, and the last of those words: E_b reads
    word 32q and the 31 after it from word 32q."""
    if out is None:
        out = np.empty(n, dtype=_low_bit_tables(b).dtype)
    full = n // 32
    _low_bit_rows(z[:full], b, out[:32 * full].reshape(full, 32))
    if n % 32:  # the leading words read from the next chain word
        out[32 * full:] = _low_bit_rows(z[full:full + 1], b)[0, :n % 32]
    state = int(z[(n - 1) // 32])
    for _ in range((n - 1) & 31):
        state = xorshift_step(state)
    return out, state


def _low_bit_rows(z, b, out=None):
    """The low b bits of the 32 words from each word of the contiguous T^32
    chain z, of any shape: E_b(z[...]) as z.shape + (32,) uint8, uint16 or
    uint32 values, written to the contiguous `out` if given, in blocks of
    _READ_BLOCK chain words."""
    tab = _low_bit_tables(b)
    wide = tab.view(np.uint64)  # a row of 32 values as 4, 8 or 16 wider words
    if out is None:
        out = np.empty(z.shape + (32,), dtype=tab.dtype)
    flat, rows = z.reshape(-1), out.view(np.uint64).reshape(-1, wide.shape[-1])
    for s in range(0, flat.size, _READ_BLOCK):
        _apply_tables(wide, flat[s:s + _READ_BLOCK], rows[s:s + _READ_BLOCK])
    return out


def _flip_prefix(starts, n, pre, tot, rows):
    """Step the L*k strategy words after the k lane starts and prefix-XOR
    their one-hot flip masks, one lane row at a time.

    pre is (nw, L, k): pre[w, i, l] is the XOR, in state word w, of the masks
    of the first i + 1 words of lane l. tot is (nw, k): tot[w, l] is the XOR
    of all masks of the lanes before l, so the state after flip (i, l) is the
    carried state ^ tot[:, l] ^ pre[:, i, l]. rows are two scratch rows of k
    words, which tot may share: it is written last."""
    nw, ln, k = pre.shape
    top, nn, low = np.uint32(1 << 31), np.uint32(n), np.uint32(n - 1)
    prev = starts
    for i in range(ln):
        cur = rows[i & 1]
        _step(prev, cur, pre[0, i])  # the mask row is scratch until the masks
        cell = pre[-1, i]  # the cells, until the last word's masks
        if n & (n - 1):
            np.floor_divide(cur, nn, out=cell)
            cell *= nn
            np.subtract(cur, cell, out=cell)
        else:
            np.bitwise_and(cur, low, out=cell)
        for w in range(nw):
            row = pre[w, i]
            off = np.subtract(cell, np.uint32(32 * w), out=row) if w else cell
            np.right_shift(top, off, out=row)  # 0 outside word w
            if i:
                row ^= pre[w, i - 1]
        prev = cur
    tot[:, 0] = 0
    for w in range(nw):
        np.bitwise_xor.accumulate(pre[w, -1, :-1], out=tot[w, 1:])


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def xorshift_fill(state: int, n: int) -> tuple[np.ndarray, int]:
    """Next n words of the XORshift chain starting after `state`: the b = 32
    read of the T^32 chain of those words."""
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    out = np.empty(n, dtype=np.uint32)  # before the chain: see _byte_tables
    if n == 0:
        return out, int(state)
    return _low_bits(_length_chain(state, n), n, 32, out)


def ci_fill(xbits: np.ndarray, s1: int, s2: int, c: int, rounds: int) -> tuple[np.ndarray, int, int]:
    """Run `rounds` generator rounds from the state xbits, which is not written.

    Returns (the states x^0..x^rounds as MSB-first packed uint8 rows of
    ceil(n/8) bytes, row 0 being packbits(xbits), new s1, new s2).
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    if rounds < 0:
        raise ValueError(f"rounds must be at least 0, got {rounds}")
    if int(rounds) * (int(c) + 1) >= _FLIP_LIMIT:  # checked before any draw
        raise ValueError(f"{rounds} rounds of up to c + 1 = {int(c) + 1} flips "
                         "overflow the int64 flip count")
    n = xbits.size
    nb = -(-n // 8)
    rows = np.empty((rounds + 1, nb), dtype=np.uint8)
    rows[0] = np.packbits(xbits)
    if rounds == 0:
        return rows, s1, s2
    nw = -(-n // 32)  # 32-cell state words, cell 32w + j at bit 31 - j
    packed = np.zeros(4 * nw, dtype=np.uint8)
    packed[:nb] = rows[0]
    carry = packed.view(">u4").astype(np.uint32)
    ln, sh = _LANE, _LANE.bit_length() - 1
    flips = max(ln, _CHUNK_FLIPS >> (nw - 1).bit_length())  # per chunk, a power of two
    kf = min(flips, rounds * (c + 1) + ln - 1) // ln  # lanes per chunk, fewer for a short call
    buf = np.empty((nw, ln * kf), dtype=np.uint32)
    vec = np.empty((1 + max(2, nw), kf), dtype=np.uint32)
    starts, tot = vec[0], vec[1:1 + nw]  # tot shares the rows of raw words
    per = _LENGTH_BLOCK
    z = _length_chain(s1, min(rounds, per))  # the first block's length chain
    jumped = np.empty_like(z)
    j = end = -1  # chunk in buf; last flip of the rounds drawn
    for r0 in range(0, rounds, per):
        r1 = min(rounds, r0 + per)
        if r0:  # this block's chain: the one before, jumped by T^per
            _apply_tables(_jump_table(per.bit_length() - 1), z, jumped)
            z, jumped = jumped, z
        odd, s1 = _low_bits(z, r1 - r0, 1)
        last = odd + np.int64(c)  # each round's flips
        np.cumsum(last, out=last)
        last += end  # each round's last flip, counted from the call's first
        end = int(last[-1])
        reach = end + (rounds - r1) * (c + 1)  # no later round ends past it
        i0 = 0
        while i0 < r1 - r0:
            while (j + 1) * flips <= last[i0]:  # on to the chunk of round i0's last flip
                j += 1
                k = min(kf, (reach - j * flips) // ln + 1)  # lanes the rounds reach
                if j == 0:
                    starts[:k] = s2
                    _jump_chain(starts[:k], sh)
                else:
                    carry ^= tot[:, -1] ^ buf[:, -1]  # all flips of the full chunk j - 1
                    _apply_tables(_jump_table(flips.bit_length() - 1), starts[:k], vec[1, :k])
                    starts[:k] = vec[1, :k]
                pre = buf[:, :ln * k].reshape(nw, ln, k)
                _flip_prefix(starts[:k], n, pre, tot[:, :k], (vec[1, :k], vec[2, :k]))
            i1 = i0 + int(np.searchsorted(last[i0:], (j + 1) * flips))
            at = last[i0:i1] - j * flips
            lane = at >> sh
            at &= ln - 1
            at *= k
            at += lane  # each last flip in a word's prefix rows
            states = np.empty((i1 - i0, nw), dtype=">u4")
            for w in range(nw):
                got = pre[w].ravel().take(at)
                got ^= tot[w].take(lane)
                got ^= carry[w]
                states[:, w] = got
            rows[1 + r0 + i0:1 + r0 + i1] = states.view(np.uint8)[:, :nb]
            i0 = i1
    loc = end - j * flips  # the strategy word at the final flip, from its lane start
    s2 = int(starts[loc >> sh])
    for _ in range((loc & (ln - 1)) + 1):
        s2 = xorshift_step(s2)
    return rows, s1, s2
