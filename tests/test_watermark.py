import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cimark.generator import XorShift32
from cimark.imaging import (
    crop_attack,
    gaussian_noise_attack,
    jpeg_attack,
    rotate_attack,
    synthetic_carrier,
    synthetic_watermark,
)
from cimark.watermark import (
    FOLD_INIT,
    CoefficientSpec,
    EmbeddingKey,
    derive_strategy_seed,
    embed,
    embedding_sequence,
    extract,
    fold_digest,
    merge_coefficients,
    mix_watermark,
    mix_with_strategy,
    robustness_sweep,
    similarity,
    split_coefficients,
)
from cimark.watermark import _KeyStream, _mixture, _strategy_seed

KEY1, KEY2 = 0x1111AAAA, 0x2222BBBB


def fold_digest_reference(bits):
    """Independent re-statement of the documented fold."""
    data = np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
    d = FOLD_INIT
    for byte in data:
        d = (((d << 5) | (d >> 27)) & 0xFFFFFFFF) ^ byte
    return d


def doubling_reference(s, m_total, count):
    """U_0 .. U_{count-1}, one Python step at a time."""
    out = []
    u = 0
    for k in range(count):
        u = int(s[0]) % m_total if k == 0 else (int(s[k]) + 2 * u + (k - 1)) % m_total
        out.append(u)
    return out


def distinct_addresses_reference(s, m_total, count):
    """(first `count` distinct U_k over the strategy values s, index of the
    last one); RuntimeError past U_cap, cap = 16 count + 4096."""
    seen = set()
    out = []
    u = 0
    for k in range(16 * count + 4096 + 1):
        u = int(s[0]) % m_total if k == 0 else (int(s[k]) + 2 * u + (k - 1)) % m_total
        if u not in seen:
            seen.add(u)
            out.append(u)
            if len(out) == count:
                return out, k
    raise RuntimeError("address generation did not converge")


class TestCoefficientSpec:
    def test_default_planes(self):
        spec = CoefficientSpec()
        assert spec.msc_bits == (7, 6, 5, 4)
        assert spec.lsc_bits == (2, 1, 0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            CoefficientSpec(msc_bits=(7, 6, 5), lsc_bits=(5, 1, 0))

    def test_bad_plane_rejected(self):
        with pytest.raises(ValueError):
            CoefficientSpec(msc_bits=(8,), lsc_bits=(0,))


class TestSplitMerge:
    def test_lsc_count_for_256_image(self):
        img = synthetic_carrier(0)
        msc, lsc = split_coefficients(img)
        assert lsc.size == 256 * 256 * 3 == 196_608
        assert msc.size == 256 * 256 * 4

    def test_single_pixel_msc_bits(self):
        img = np.array([[0b10110010]], dtype=np.uint8)
        msc, lsc = split_coefficients(img)
        assert msc.tolist() == [1, 0, 1, 1]
        assert lsc.tolist() == [0, 1, 0]

    def test_split_merge_identity_100_random(self):
        rng = np.random.default_rng(21)
        spec = CoefficientSpec()
        for _ in range(100):
            h = int(rng.integers(1, 24))
            w = int(rng.integers(1, 24))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            msc, lsc = split_coefficients(img, spec)
            assert np.array_equal(merge_coefficients(msc, lsc, spec, img), img)

    def test_merge_overwrites_covered_planes_only(self):
        rng = np.random.default_rng(22)
        spec = CoefficientSpec()
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        msc, lsc = split_coefficients(img, spec)
        other = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        merged = merge_coefficients(msc, lsc, spec, other)
        # plane 3 comes from the base image, everything else from the planes
        assert np.array_equal(merged & np.uint8(0b00001000),
                              other & np.uint8(0b00001000))
        assert np.array_equal(merged & np.uint8(0b11110111),
                              img & np.uint8(0b11110111))


class TestFoldAndSeeds:
    def test_all_zero_fold_constant(self):
        # 32768 zero bytes rotate the init through a whole number of cycles
        zeros = np.zeros(256 * 256 * 4, dtype=np.uint8)
        assert fold_digest(zeros) == FOLD_INIT == 0x811C9DC5
        assert fold_digest(zeros) == fold_digest_reference(zeros)

    def test_fold_matches_reference_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            bits = rng.integers(0, 2, size=int(rng.integers(8, 4096)), dtype=np.uint8)
            assert fold_digest(bits) == fold_digest_reference(bits)

    @settings(max_examples=60, deadline=None)
    @given(nbits=st.integers(0, 4000), seed=st.integers(0, 2**32 - 1))
    @example(nbits=0, seed=1)
    @example(nbits=1, seed=2)
    @example(nbits=255, seed=3)
    @example(nbits=256, seed=4)
    @example(nbits=257, seed=5)
    @example(nbits=2048, seed=6)
    @example(nbits=3840, seed=7)
    @example(nbits=3999, seed=8)
    def test_closed_form_equals_fold_loop(self, nbits, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=nbits, dtype=np.uint8)
        assert fold_digest(bits) == fold_digest_reference(bits)

    def test_single_bit_changes_digest(self):
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 2, size=8192, dtype=np.uint8)
        base = fold_digest(bits)
        for pos in rng.integers(0, 8192, size=50):
            flipped = bits.copy()
            flipped[pos] ^= 1
            assert fold_digest(flipped) != base

    def test_unauth_mode_passthrough(self):
        key = EmbeddingKey(KEY1, KEY2, mode="unauth")
        msc = np.ones(64, dtype=np.uint8)
        assert derive_strategy_seed(key, msc) == (KEY1, KEY2)

    def test_auth_mode_single_msc_bit_changes_seeds(self):
        key = EmbeddingKey(KEY1, KEY2, mode="auth")
        rng = np.random.default_rng(25)
        msc = rng.integers(0, 2, size=1024, dtype=np.uint8)
        base = derive_strategy_seed(key, msc)
        flipped = msc.copy()
        flipped[500] ^= 1
        derived = derive_strategy_seed(key, flipped)
        assert derived != base

    def test_seeds_never_zero(self):
        key = EmbeddingKey(FOLD_INIT, 0, mode="auth")
        zeros = np.zeros(256 * 256 * 4, dtype=np.uint8)
        s1, s2 = derive_strategy_seed(key, zeros)
        assert s1 != 0 and s2 != 0


class TestMixture:
    def test_involution_ci(self):
        rng = np.random.default_rng(26)
        key = EmbeddingKey(KEY1, KEY2)
        for _ in range(5):
            bits = rng.integers(0, 2, size=4096, dtype=np.uint8)
            mixed = mix_watermark(bits, key)
            assert not np.array_equal(mixed, bits)
            assert np.array_equal(mix_watermark(mixed, key), bits)

    def test_involution_xor(self):
        rng = np.random.default_rng(27)
        key = EmbeddingKey(KEY1, KEY2, mix="xor")
        bits = rng.integers(0, 2, size=4096, dtype=np.uint8)
        assert np.array_equal(mix_watermark(mix_watermark(bits, key), key), bits)

    def test_injected_strategy_example(self):
        # two hits on cell 1 cancel, one hit on cell 2 flips
        out = mix_with_strategy(np.zeros(8, dtype=np.uint8), (1, 1, 2))
        assert out.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]

    def test_injected_strategy_rejects_bad_index(self):
        with pytest.raises(ValueError):
            mix_with_strategy(np.zeros(8, dtype=np.uint8), (9,))

    def test_mixture_decorrelates(self):
        key = EmbeddingKey(KEY1, KEY2)
        bits = np.zeros(4096, dtype=np.uint8)
        mixed = mix_watermark(bits, key)
        assert 0.35 < mixed.mean() < 0.65


class TestEmbeddingSequence:
    def test_worked_values(self):
        assert embedding_sequence([2, 4], 196_608, 2).tolist() == [2, 8]

    def test_modulus_one(self):
        assert embedding_sequence([5, 9, 1], 1, 3).tolist() == [0, 0, 0]

    def test_vs_independent_reimplementation(self):
        rng = np.random.default_rng(28)
        s = rng.integers(0, 4096, size=10_000)
        m = 196_608
        got = embedding_sequence(s, m, 10_000)
        u = int(s[0]) % m
        assert got[0] == u
        for k in range(1, 10_000):
            u = (int(s[k]) + 2 * u + (k - 1)) % m
            assert got[k] == u

    def test_first_term_perturbation_propagates(self):
        rng = np.random.default_rng(29)
        s = rng.integers(0, 4096, size=4096)
        m = 196_608
        a = embedding_sequence(s, m, 4096)
        s2 = s.copy()
        s2[0] += 1
        b = embedding_sequence(s2, m, 4096)
        assert (a != b).all()

    def test_addresses_in_range(self):
        rng = np.random.default_rng(30)
        s = rng.integers(0, 4096, size=4096)
        u = embedding_sequence(s, 196_608, 4096)
        assert (u >= 0).all() and (u < 196_608).all()

    @pytest.mark.parametrize("m_total", [2**31 - 1, 2**31, 2**31 + 11, 2**40 + 3, 2**62 - 57])
    def test_large_moduli_exact(self, m_total):
        # 2^31 is the last modulus scanned in int64; larger ones use Python ints
        s = np.random.default_rng(31).integers(-2**62, 2**62, size=3000)
        got = embedding_sequence(s, m_total, 3000)
        assert got.tolist() == doubling_reference(s, m_total, 3000)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 64, 1000, 1025])
    def test_every_length_matches_reference(self, count):
        s = np.random.default_rng(32).integers(0, 4096, size=1025)
        assert embedding_sequence(s, 196_608, count).tolist() == \
            doubling_reference(s, 196_608, count)


class _ServeStream:
    """Stand-in strategy source that serves a fixed sequence in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.uint32)
        self.pos = 0

    def fill(self, n):
        out = self.values[self.pos:self.pos + n]
        assert out.size == n, "served past the end of the sequence"
        self.pos += n
        return out


class TestDistinctAddresses:
    DERIVED = (0x1234567, 0x89ABCDE)

    def strategy(self, n_mix, length):
        return XorShift32(_strategy_seed(*self.DERIVED)).fill(length) % np.uint32(n_mix)

    @pytest.mark.parametrize("n_mix, m_total, count, reach", [
        (4096, 196_608, 4096, "prefix"),  # 64x64 watermark, 256x256 carrier
        (7, 1, 1, "prefix"),
        (3, 5, 4, "prefix"),
        (64, 100, 100, "chain"),          # count == M
        (1, 100, 100, "prefix"),          # constant strategy, count == M
        (64, 64, 64, "chain"),            # count == M
        (2, 64, 64, "source"),            # count == M
    ])
    def test_equals_first_distinct_reference(self, n_mix, m_total, count, reach):
        want, last = distinct_addresses_reference(
            self.strategy(n_mix, 16 * count + 4097), m_total, count)
        got = _KeyStream(self.DERIVED, n_mix, m_total, count).addresses
        assert got.tolist() == want
        # which of the scanned prefixes first holds `count` distinct values
        short = count + count // 8 + 64
        _, chain, _ = _mixture(self.DERIVED, n_mix, extra=short)
        assert reach == ("prefix" if last < short
                         else "chain" if last < chain.size else "source")

    @staticmethod
    def pinned(length, m_total, hit):
        """Strategy values that hold U_k = 0 for every k < length except
        U_hit = 1."""
        k = np.arange(length)
        s = (1 - k) % m_total
        s[0] = 0
        s[hit] = (2 - hit) % m_total
        if hit + 1 < length:
            s[hit + 1] = (-hit - 2) % m_total
        return s

    @pytest.mark.parametrize("hit", [40, 150, 300, 4128, 4129])
    def test_cap_boundary(self, hit):
        # count 2 needs U_hit; U_cap (cap = 16 * 2 + 4096 = 4128) is the last
        # value scanned. 200 values count as drawn, the rest come from the
        # strategy source.
        m_total, count, drawn = 1000, 2, 200
        s = self.pinned(4130, m_total, hit)
        ks = _KeyStream.__new__(_KeyStream)
        ks.n_mix = m_total
        ks._gen2 = _ServeStream(s[drawn:])
        short = count + count // 8 + 64
        if hit <= 4128:
            want, last = distinct_addresses_reference(s, m_total, count)
            assert (want, last) == ([0, 1], hit)
            got = ks._distinct_addresses(s[:drawn], m_total, count, short)
            assert got.tolist() == want
        else:
            with pytest.raises(RuntimeError):
                distinct_addresses_reference(s, m_total, count)
            with pytest.raises(RuntimeError):
                ks._distinct_addresses(s[:drawn], m_total, count, short)

    def test_capacity_checked_first(self):
        with pytest.raises(ValueError):
            _KeyStream(self.DERIVED, 16, 10, 11)


class TestEmbedExtract:
    def test_roundtrip_exact_both_modes(self):
        car = synthetic_carrier(3)
        wm = synthetic_watermark(0)
        for mode in ("unauth", "auth"):
            key = EmbeddingKey(KEY1, KEY2, mode=mode)
            marked = embed(car, wm, key)
            assert similarity(wm, extract(marked, key)) == 100.0

    def test_roundtrip_xor_mix(self):
        car = synthetic_carrier(4)
        wm = synthetic_watermark(1)
        key = EmbeddingKey(KEY1, KEY2, mix="xor")
        assert similarity(wm, extract(embed(car, wm, key), key)) == 100.0

    def test_roundtrip_with_repetition(self):
        car = synthetic_carrier(5)
        wm = synthetic_watermark(2)
        key = EmbeddingKey(KEY1, KEY2, repetition=3)
        marked = embed(car, wm, key)
        assert similarity(wm, extract(marked, key)) == 100.0

    def test_msc_planes_never_touched(self):
        car = synthetic_carrier(6)
        wm = synthetic_watermark(3)
        for mode in ("unauth", "auth"):
            marked = embed(car, wm, EmbeddingKey(KEY1, KEY2, mode=mode))
            assert np.array_equal(split_coefficients(marked)[0],
                                  split_coefficients(car)[0])

    def test_pixel_change_bounded_by_lsc_planes(self):
        car = synthetic_carrier(7)
        wm = synthetic_watermark(4)
        marked = embed(car, wm, EmbeddingKey(KEY1, KEY2))
        assert np.abs(marked.astype(int) - car.astype(int)).max() <= 7

    def test_capacity_rejected(self):
        car = synthetic_carrier(8)[:16, :16]  # 768 LSCs
        wm = synthetic_watermark(0)  # 4096 bits
        with pytest.raises(ValueError, match="capacity|LSC"):
            embed(car, wm, EmbeddingKey(KEY1, KEY2))

    def test_key_sensitivity_one_bit(self):
        car = synthetic_carrier(9)
        wm = synthetic_watermark(5)
        marked = embed(car, wm, EmbeddingKey(KEY1, KEY2))
        crossed = extract(marked, EmbeddingKey(KEY1 ^ 1, KEY2))
        assert 40.0 <= similarity(wm, crossed) <= 60.0

    def test_auth_single_msc_flip_scrambles(self):
        # flipping one MSC bit of the marked image drives authenticated
        # extraction to coin-flip similarity
        rng = np.random.default_rng(31)
        car = synthetic_carrier(10)
        wm = synthetic_watermark(6)
        key = EmbeddingKey(KEY1, KEY2, mode="auth")
        marked = embed(car, wm, key)
        sims = []
        for _ in range(50):
            attacked = marked.copy()
            r, c = rng.integers(0, 256, size=2)
            attacked[r, c] ^= np.uint8(1 << int(rng.integers(4, 8)))
            sims.append(similarity(wm, extract(attacked, key)))
        sims = np.asarray(sims)
        assert ((sims >= 40) & (sims <= 60)).all()
        assert 45.0 <= sims.mean() <= 55.0

    def test_unauth_ignores_msc_flip(self):
        car = synthetic_carrier(11)
        wm = synthetic_watermark(7)
        key = EmbeddingKey(KEY1, KEY2, mode="unauth")
        marked = embed(car, wm, key)
        attacked = marked.copy()
        attacked[10, 10] ^= 0b10000000
        assert similarity(wm, extract(attacked, key)) > 99.9


class TestSimilarity:
    def test_equal(self):
        wm = synthetic_watermark(8)
        assert similarity(wm, wm) == 100.0

    def test_complement(self):
        wm = synthetic_watermark(9)
        assert similarity(wm, 1 - wm) == 0.0

    def test_independent_random_pair(self):
        rng = np.random.default_rng(32)
        a = rng.integers(0, 2, size=(64, 64))
        b = rng.integers(0, 2, size=(64, 64))
        assert similarity(a, b) == pytest.approx(50.0, abs=3.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(33)
        a = rng.integers(0, 2, size=(16, 16))
        b = rng.integers(0, 2, size=(16, 16))
        assert similarity(a, b) == similarity(b, a)
        assert 0.0 <= similarity(a, b) <= 100.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            similarity(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSweep:
    def test_empty_attack_list(self):
        assert robustness_sweep(synthetic_carrier(3), synthetic_watermark(0),
                                KEY1, KEY2, []) == []

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            robustness_sweep(synthetic_carrier(3), synthetic_watermark(0),
                             KEY1, KEY2, [("shear", 4)])

    def test_crop_series_monotone_unauth(self):
        rows = robustness_sweep(synthetic_carrier(3), synthetic_watermark(0),
                                KEY1, KEY2, [("crop", s) for s in (10, 50, 100, 200)])
        unauth = [sim for _, _, mode, sim in rows if mode == "unauth"]
        assert all(a >= b for a, b in zip(unauth, unauth[1:]))

    def test_deterministic(self):
        args = (synthetic_carrier(3), synthetic_watermark(0), KEY1, KEY2,
                [("noise", 2)])
        assert robustness_sweep(*args) == robustness_sweep(*args)

    def test_unknown_attack_rejected_before_any_work(self, monkeypatch):
        import cimark.watermark as wmk

        def no_embed(*a, **kw):
            raise AssertionError("embedded before validating the grid")

        monkeypatch.setattr(wmk, "embed", no_embed)
        with pytest.raises(ValueError, match="shear"):
            robustness_sweep(synthetic_carrier(3), synthetic_watermark(0),
                             KEY1, KEY2, [("crop", 10), ("shear", 4)])

    @pytest.mark.parametrize("seed", [3, 11])
    def test_rows_equal_per_cell_loop(self, seed):
        carrier = synthetic_carrier(seed)
        wm = synthetic_watermark(seed)
        grid = [("crop", 50), ("rotate", 5), ("jpeg", 10), ("noise", 2)]
        noise_seed = 0x5EED + seed
        attacks = {
            "crop": lambda img, p: crop_attack(img, int(p)),
            "rotate": lambda img, p: rotate_attack(img, p),
            "jpeg": lambda img, p: jpeg_attack(img, p),
            "noise": lambda img, p: gaussian_noise_attack(img, p, noise_seed),
        }
        want = []
        for kind, param in grid:
            for mode in ("unauth", "auth"):
                key = EmbeddingKey(KEY1 ^ seed, KEY2, mode=mode)
                marked = embed(carrier, wm, key)
                recovered = extract(attacks[kind](marked, param), key, wm_dims=wm.shape)
                want.append((kind, param, mode, similarity(wm, recovered)))
        got = robustness_sweep(carrier, wm, KEY1 ^ seed, KEY2, iter(grid),
                               noise_seed=noise_seed)
        assert got == want
