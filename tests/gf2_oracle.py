"""Reference GF(2) rank shared by the gf2 and kernel tests."""

import numpy as np


def naive_rank(matrix) -> int:
    """Independent elimination oracle working directly on 0/1 cells."""
    m = (np.array(matrix, dtype=np.uint8) & 1).copy()
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        piv = None
        for row in range(rank, nrows):
            if m[row, col]:
                piv = row
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        for row in range(nrows):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
    return rank
