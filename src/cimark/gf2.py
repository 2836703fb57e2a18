"""GF(2) matrix rank and the rank distribution of random binary matrices."""

from __future__ import annotations

import numpy as np


def gf2_rank_many(packed: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """GF(2) ranks of a batch of bit-packed matrices, shape (count, nrows),
    of any unsigned integer dtype; bit j of a row = column j, and bits at
    and above ncols are ignored. The input is left untouched: the
    elimination works on one transposed copy, uint32 when ncols <= 32 and
    uint64 otherwise, masked to ncols bits, with rows along axis 0 so that
    every step, the max included, is one pass over contiguous lanes.

    Columns are eliminated from high to low, which gives the same rank as
    any other order. When column c is reached, no row holds a bit above c
    (the masking and the steps for the higher columns cleared them), so the
    largest row holds bit c if any row does: the pivot is the elementwise
    max over the rows, and a row holds bit c exactly when it shifted right
    by c is 1. Every row holding the bit, the pivot included, is XORed with
    the pivot. The pivot row becomes zero, which is the same as dropping
    it, and dropping a pivot row leaves the rank of the rest to be counted,
    so no row swaps or per-matrix row pointers are needed. A matrix without
    the bit gets pivot 0 and neither counts nor changes anything.
    """
    packed = np.asarray(packed)
    if packed.ndim != 2 or packed.shape[1] != nrows:
        raise ValueError(f"expected shape (count, {nrows}), got {packed.shape}")
    if not 0 <= ncols <= 64:
        raise ValueError("between 0 and 64 columns supported")
    m = packed.T.astype(np.uint32 if ncols <= 32 else np.uint64, order="C")
    if ncols < 8 * m.itemsize:
        m &= m.dtype.type((1 << ncols) - 1)
    rank = np.zeros(m.shape[1], dtype=m.dtype)
    held = np.empty_like(m)
    for col in range(ncols - 1, -1, -1):
        prow = m.max(axis=0, initial=0)  # initial: a 0-row matrix has rank 0
        rank += prow >> col
        np.right_shift(m, col, out=held)  # 1 where the row holds bit col
        held *= prow
        m ^= held
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
