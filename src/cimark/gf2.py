"""GF(2) matrix rank and the rank distribution of random binary matrices."""

from __future__ import annotations

import numpy as np

# Matrices eliminated per block: at 32 rows of uint32 the working copy and
# its scratch buffer take 512 KB each, so a block stays in a 2 MB L2 cache.
_BLOCK = 4096


def _width(bits: int) -> np.dtype:
    """The narrowest unsigned dtype holding `bits` bits (at most 64)."""
    return next(np.dtype(d) for d in (np.uint8, np.uint16, np.uint32, np.uint64)
                if bits <= 8 * np.dtype(d).itemsize)


def gf2_rank_many(packed: np.ndarray, nrows: int, ncols: int,
                  shift: int = 0) -> np.ndarray:
    """GF(2) ranks of a batch of bit-packed matrices, shape (count, nrows),
    of any unsigned integer dtype; bit shift + j of a row = column j, and
    the other bits are ignored, so words go in as drawn. The input is left
    untouched: the elimination works per block of `_BLOCK` matrices on a
    transposed copy, shifted right, cast (dropping the bits above the copy's
    dtype) and masked to ncols bits, with rows along axis 0 so that every
    step, the max included, is one pass over contiguous lanes. The copy and
    its scratch buffer are allocated once per call and reused by every block.

    Columns are eliminated from high to low, which gives the same rank as
    any other order. When column c is reached, no row holds a bit above c
    (the masking and the steps for the higher columns cleared them), so the
    largest row holds bit c if any row does: the pivot is the elementwise
    max over the rows; a matrix without bit c gets pivot 0. Every row is
    XORed with the pivot and keeps the smaller of the two values: a row
    holding bit c loses it (bit c is its highest), a row without it would
    gain it and stays as it was, and pivot 0 changes nothing. So every row
    holding the bit, the pivot included, is XORed with the pivot, in two
    passes over the rows. The pivot row becomes zero, which is the same as
    dropping it, and dropping a pivot row leaves the rank of the rest to be
    counted, so no row swaps or per-matrix row pointers are needed.

    For the same reason the rows narrow as the columns go: the copy starts
    in the narrowest dtype holding ncols bits, and once the columns left
    fit in half of it, it moves to the half-width dtype, swapping places
    with the scratch buffer. Each step then handles twice the lanes per
    pass.
    """
    packed = np.asarray(packed)
    if packed.ndim != 2 or packed.shape[1] != nrows:
        raise ValueError(f"expected shape (count, {nrows}), got {packed.shape}")
    if not 0 <= ncols <= 64:
        raise ValueError("between 0 and 64 columns supported")
    count = packed.shape[0]
    top = _width(ncols)
    rank = np.zeros(count, dtype=np.uint8)  # a rank is at most 64
    # two byte buffers, each viewed as the copy or the scratch at any width
    raw = np.empty((2, nrows * min(count, _BLOCK) * top.itemsize), dtype=np.uint8)

    def view(side, dtype, n):
        return raw[side, :nrows * n * dtype.itemsize].view(dtype).reshape(nrows, n)

    for start in range(0, count, _BLOCK):
        chunk = packed[start:start + _BLOCK]
        n = chunk.shape[0]
        r = rank[start:start + n]
        side = 0
        m = view(side, top, n)
        np.right_shift(chunk.T, shift, out=m, casting="unsafe")
        if ncols < 8 * top.itemsize:
            m &= top.type((1 << ncols) - 1)
        col = ncols
        while col > 0:
            dtype = _width(col)
            if dtype != m.dtype:  # every row is below 2^col: narrowing is exact
                side ^= 1
                wide, m = m, view(side, dtype, n)
                np.copyto(m, wide, casting="unsafe")
            held = view(side ^ 1, dtype, n)
            low = 4 * dtype.itemsize if dtype.itemsize > 1 else 0
            for c in range(col - 1, low - 1, -1):
                prow = m.max(axis=0, initial=0)  # initial: 0 rows give rank 0
                bit = prow >> c  # 1 where some row holds bit c
                r += bit
                prow *= bit  # pivot 0 where none does
                np.bitwise_xor(m, prow, out=held)
                np.minimum(m, held, out=m)  # clears bit c where a row holds it
            col = low
    return rank.astype(np.int64)


def rank_distribution_rect(rows: int, cols: int, r: int) -> float:
    """P(rank = r) for a uniform random rows-by-cols matrix over GF(2):

        2^(r(rows+cols-r) - rows*cols)
            * prod_{i=0..r-1} (1-2^(i-rows))(1-2^(i-cols)) / (1-2^(i-r))
    """
    if r < 0 or r > min(rows, cols):
        return 0.0
    log2 = float(r * (rows + cols - r) - rows * cols)
    p = 2.0 ** log2
    for i in range(r):
        p *= (1.0 - 2.0 ** (i - rows)) * (1.0 - 2.0 ** (i - cols))
        p /= (1.0 - 2.0 ** (i - r))
    return p
