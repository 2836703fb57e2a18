"""GF(2) references shared by the gf2, kernel and acceptance tests:
cell-by-cell rank, the rank of one matrix of packed rows by an XOR basis,
32x32 matrix products and powers on lists of column words, and a
one-matrix front end to `gf2_rank_many`."""

import numpy as np

from cimark.gf2 import gf2_rank_many


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


def basis_rank(rows, ncols: int) -> int:
    """Rank of one matrix given as packed rows (bit j = column j; bits at
    and above ncols ignored), on Python ints: each row is reduced by the
    basis rows keyed on its highest bit, and joins the basis if it is not
    reduced to zero."""
    basis = {}
    for row in rows:
        v = int(row) & ((1 << ncols) - 1)
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def mat_mul_gf2(a, b):
    """Product a*b of 32x32 GF(2) matrices given as lists of column words."""
    out = []
    for j in range(32):
        v = b[j]
        acc = 0
        for i in range(32):
            if (v >> i) & 1:
                acc ^= a[i]
        out.append(acc)
    return out


def mat_pow_gf2(a, e):
    """a^e by square-and-multiply, for a 32x32 GF(2) matrix of column words."""
    result = [1 << j for j in range(32)]  # identity
    base = list(a)
    while e:
        if e & 1:
            result = mat_mul_gf2(base, result)
        base = mat_mul_gf2(base, base)
        e >>= 1
    return result


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
    return int(gf2_rank_many(pack_rows(m)[None, :], m.shape[0], m.shape[1])[0])
