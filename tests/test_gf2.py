import numpy as np
import pytest

from cimark.gf2 import _BLOCK, gf2_rank_many, rank_distribution_rect
from gf2_oracle import basis_rank, gf2_rank, naive_rank, pack_rows


class TestRank:
    def test_identity(self):
        assert gf2_rank(np.eye(32, dtype=np.uint8)) == 32

    def test_zero(self):
        assert gf2_rank(np.zeros((31, 31), dtype=np.uint8)) == 0

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty(self, shape):
        assert gf2_rank(np.zeros(shape, dtype=np.uint8)) == 0

    def test_input_untouched(self):
        rng = np.random.default_rng(5)
        m = rng.integers(0, 2, size=(16, 16), dtype=np.uint8)
        snap = m.copy()
        gf2_rank(m)
        assert np.array_equal(m, snap)

    def test_bounded_by_min_dim(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            r = int(rng.integers(1, 12))
            c = int(rng.integers(1, 12))
            m = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
            assert gf2_rank(m) <= min(r, c)

    def test_invariant_under_row_ops(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.integers(0, 2, size=(10, 10), dtype=np.uint8)
            base = gf2_rank(m)
            perm = m[rng.permutation(10)]
            assert gf2_rank(perm) == base
            added = m.copy()
            i, j = rng.choice(10, size=2, replace=False)
            added[i] ^= added[j]
            assert gf2_rank(added) == base

    @pytest.mark.parametrize("shape, nrows, ncols", [
        ((4, 8), 6, 8), ((8,), 8, 8), ((4, 8, 1), 8, 8), ((4, 8), 8, 65), ((4, 8), 8, -1)])
    def test_rank_many_rejects_bad_layout(self, shape, nrows, ncols):
        with pytest.raises(ValueError):
            gf2_rank_many(np.zeros(shape, dtype=np.uint64), nrows, ncols)

    def test_basis_oracle_matches_cell_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = int(rng.integers(0, 12))
            c = int(rng.integers(0, 12))
            # low ranks as well as full ones: some rows repeat others
            m = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
            if r > 1:
                m[rng.integers(0, r)] = m[0]
            assert basis_rank(pack_rows(m).tolist(), c) == naive_rank(m)

    @pytest.mark.parametrize("nrows, ncols, shift", [
        pytest.param(32, 32, 0, id="32-32"), pytest.param(31, 31, 0, id="31-31"),
        pytest.param(31, 31, 1, id="31-31-shift1"), pytest.param(6, 8, 0, id="6-8"),
        pytest.param(6, 8, 1, id="6-8-shift1")])
    def test_rank_many_across_block_boundaries(self, nrows, ncols, shift):
        """Counts at either side of one and two blocks give the per-matrix
        ranks of the uint32 words shifted right by `shift`, every block
        alike; bits below shift and at and above shift + ncols are set, to
        be ignored (at 8 columns the rows are the low byte)."""
        rng = np.random.default_rng(ncols + shift)
        mats = rng.integers(0, 2**32, size=(2 * _BLOCK + 3, nrows), dtype=np.uint32)
        mats[::7, 1:] = mats[::7, :1]  # rank 1 or 0 now and then
        snap = mats.copy()
        expected = [basis_rank([v >> shift for v in m.tolist()], ncols) for m in mats]
        for count in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            ranks = gf2_rank_many(mats[:count], nrows, ncols, shift)
            assert ranks.dtype == np.int64
            assert ranks.tolist() == expected[:count]
        assert np.array_equal(mats, snap)

    def test_rectangular(self):
        m = np.zeros((6, 8), dtype=np.uint8)
        m[0, 0] = m[1, 3] = m[2, 7] = 1
        assert gf2_rank(m) == 3


class TestRankDistribution:
    def test_one_by_one(self):
        assert rank_distribution_rect(1, 1, 1) == pytest.approx(0.5)
        assert rank_distribution_rect(1, 1, 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [6, 31, 32])
    def test_normalization(self, n):
        total = sum(rank_distribution_rect(n, n, r) for r in range(n + 1))
        assert abs(total - 1.0) < 1e-12

    def test_rect_normalization(self):
        total = sum(rank_distribution_rect(6, 8, r) for r in range(7))
        assert abs(total - 1.0) < 1e-12

    def test_known_full_rank_limits(self):
        # classical values used by the rank test binning
        assert rank_distribution_rect(32, 32, 32) == pytest.approx(0.2887880951, abs=1e-9)
        assert rank_distribution_rect(32, 32, 31) == pytest.approx(0.5775761902, abs=1e-9)
        assert rank_distribution_rect(6, 8, 6) == pytest.approx(0.773118, abs=1e-6)
        assert rank_distribution_rect(6, 8, 5) == pytest.approx(0.217439, abs=1e-6)

    def test_out_of_range(self):
        assert rank_distribution_rect(4, 4, 5) == 0.0
        assert rank_distribution_rect(4, 4, -1) == 0.0

    def test_monte_carlo_32x32_full_rank(self):
        # brute-force check of P(rank=32) against simulation
        rng = np.random.default_rng(99)
        count = 200_000
        mats = rng.integers(0, 1 << 32, size=(count, 32), dtype=np.uint64)
        ranks = gf2_rank_many(mats, 32, 32)
        est = float((ranks == 32).mean())
        p = rank_distribution_rect(32, 32, 32)
        sigma = (p * (1 - p) / count) ** 0.5
        assert abs(est - p) < 3 * sigma + 1e-9

    def test_small_exhaustive_2x2(self):
        # all 16 matrices: rank0=1, rank1=9, rank2=6
        from itertools import product

        counts = {0: 0, 1: 0, 2: 0}
        for bits in product([0, 1], repeat=4):
            m = np.array(bits, dtype=np.uint8).reshape(2, 2)
            counts[naive_rank(m)] += 1
        for r in range(3):
            assert rank_distribution_rect(2, 2, r) == pytest.approx(counts[r] / 16)
