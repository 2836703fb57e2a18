"""GF(2) matrix rank and the rank distribution of random binary matrices."""

from __future__ import annotations

import numpy as np


def gf2_rank_many(packed: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """GF(2) ranks of a batch of bit-packed matrices, shape (count, nrows),
    of any unsigned integer dtype; bit j of a row = column j. The input is
    left untouched: the elimination works on one transposed copy, uint32
    when ncols <= 32 and uint64 otherwise, with rows along axis 0 so that
    every step, the max included, is one pass over contiguous lanes.

    For each column c, one row holding bit c is the pivot (the largest, so
    it is an elementwise max over the rows), and every row holding the bit,
    the pivot included, is XORed with it. The pivot row becomes zero, which
    is the same as dropping it, and dropping a pivot row leaves the rank of
    the rest to be counted, so no row swaps or per-matrix row pointers are
    needed. A matrix without the bit gets pivot 0 and neither counts nor
    changes anything.
    """
    packed = np.asarray(packed)
    if packed.ndim != 2 or packed.shape[1] != nrows:
        raise ValueError(f"expected shape (count, {nrows}), got {packed.shape}")
    if not 0 <= ncols <= 64:
        raise ValueError("between 0 and 64 columns supported")
    m = packed.T.astype(np.uint32 if ncols <= 32 else np.uint64, order="C")
    rank = np.zeros(m.shape[1], dtype=m.dtype)
    hit = np.empty_like(m)
    held = np.empty_like(m)
    for col in range(ncols):
        np.right_shift(m, col, out=hit)
        hit &= 1
        np.negative(hit, out=hit)  # all ones where the row holds bit col
        np.bitwise_and(hit, m, out=held)
        prow = held.max(axis=0, initial=0)  # initial: a 0-row matrix has rank 0
        rank += (prow >> col) & 1
        hit &= prow
        m ^= hit
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
