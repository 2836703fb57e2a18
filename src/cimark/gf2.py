"""GF(2) matrix rank and the rank distribution of random binary matrices."""

from __future__ import annotations

import numpy as np

from .kernels import rank_batch


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a 2-D 0/1 matrix into one uint64 per row (bit j = column j)."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = m.shape
    if cols > 64:
        raise ValueError("at most 64 columns supported")
    weights = (np.uint64(1) << np.arange(cols, dtype=np.uint64))
    return ((m.astype(np.uint64) & 1) * weights).sum(axis=1, dtype=np.uint64)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2); the input is left untouched."""
    m = np.asarray(matrix)
    packed = pack_rows(m)[None, :]
    return int(rank_batch(packed, m.shape[0], m.shape[1])[0])


def gf2_rank_many(packed: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """Ranks of a batch of bit-packed matrices, shape (count, nrows), of any
    unsigned integer dtype; the input is left untouched."""
    return rank_batch(packed, nrows, ncols)


def rank_distribution(n: int, r: int) -> float:
    """P(rank = r) for a uniform random n-by-n matrix over GF(2)."""
    return rank_distribution_rect(n, n, r)


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
