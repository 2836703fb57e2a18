import hashlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cimark import imaging
from cimark.cli import BENCH_GRID
from cimark.generator import CiGenerator
from cimark.imaging import (
    crop_attack,
    gaussian_noise_attack,
    jpeg_attack,
    rotate_attack,
    synthetic_carrier,
    synthetic_watermark,
)
from cimark.kernels import xorshift_step
from cimark.watermark import (
    ATTACKS,
    FOLD_INIT,
    EmbeddingKey,
    derive_strategy_seed,
    embed,
    embedding_sequence,
    extract,
    fold_digest,
    robustness_sweep,
    shared_work,
    similarity,
)
from cimark.watermark import (_address_rows, _block_length, _first_occurrences,
                              _key_streams, _lsc_place, _lscs, _msc_bytes, _schedules,
                              _strategy_seed, _write)
from jpeg_oracle import SWEEP_KEYS, kernel_run, tie_prone_digest

KEY1, KEY2 = SWEEP_KEYS

# Bit planes, 7 = most significant: the MSCs and the LSCs of a pixel.
MSC_BITS = (7, 6, 5, 4)
LSC_BITS = (2, 1, 0)


def key_stream(derived, mix, n, m_total, count):
    """The key schedule (mask, addresses) of one derived seed pair."""
    return _key_streams([derived], mix, n, m_total, count)[0]


def lsc_at(img, addresses):
    """The LSCs at `addresses`, by the rule embed writes them with."""
    return _lscs(img, _lsc_place(addresses))


def planes_reference(img, bits):
    """The bit planes `bits` of `img` linearized: pixels in row-major order,
    selected bits most significant first within each pixel."""
    flat = np.asarray(img).reshape(-1)
    return np.stack([(flat >> np.uint8(b)) & np.uint8(1) for b in bits], axis=1).reshape(-1)


def merge_reference(lsc, base):
    """Inverse of planes_reference(base, LSC_BITS): `lsc` written into bits
    2-0 of `base`, whose MSCs and bit 3 carry through unchanged."""
    a = np.asarray(base)
    bits = np.asarray(lsc, dtype=np.uint8).reshape(-1, 3)
    payload = bits[:, 0] << 2 | bits[:, 1] << 1 | bits[:, 2]
    return ((a.reshape(-1) & np.uint8(0xF8)) | payload).reshape(a.shape)


def fold_digest_reference(data):
    """Independent re-statement of the documented fold over bytes."""
    d = FOLD_INIT
    for byte in np.asarray(data, dtype=np.uint8).tolist():
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


def strategy_reference(derived, n, length):
    """The first `length` strategy cells of a derived seed pair, word mod n,
    from the scalar `xorshift_step` chain after its strategy seed: they
    share no table read with the key schedule they check."""
    word, words = _strategy_seed(*derived), []
    for _ in range(length):
        word = xorshift_step(word)
        words.append(word)
    return np.array(words, dtype=np.uint32) % np.uint32(n)


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


class TestSplitMerge:
    def test_lsc_count_for_256_image(self):
        img = synthetic_carrier(0)
        key = EmbeddingKey(KEY1, KEY2, mode="auth")
        with mock.patch("cimark.watermark._key_streams", wraps=_key_streams) as spy:
            _schedules([img], key, 64)
        assert spy.call_args.args[3] == 256 * 256 * 3 == 196_608  # M, the LSC count
        assert _msc_bytes(img).size * 8 == 256 * 256 * 4  # every MSC bit, packed

    def test_single_pixel_msc_bits(self):
        img = np.array([[0b10110010]], dtype=np.uint8)
        assert np.unpackbits(_msc_bytes(img)).tolist() == [1, 0, 1, 1, 0, 0, 0, 0]
        assert lsc_at(img, np.arange(3)).tolist() == [0, 1, 0]

    def test_split_merge_identity_100_random(self):
        """Writing every LSC back as read gives the image again."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            h = int(rng.integers(1, 24))
            w = int(rng.integers(1, 24))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            every = np.arange(3 * img.size)
            assert np.array_equal(_write(img, lsc_at(img, every), every, 1), img)

    def test_merge_overwrites_covered_planes_only(self):
        rng = np.random.default_rng(22)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        every = np.arange(3 * img.size)
        other = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        merged = _write(other, lsc_at(img, every), every, 1)
        # MSCs and bit 3 come from the carrier, the LSCs from the written bits
        assert np.array_equal(merged & np.uint8(0b11111000),
                              other & np.uint8(0b11111000))
        assert np.array_equal(merged & np.uint8(0b00000111),
                              img & np.uint8(0b00000111))

    def test_write_equals_plane_merge(self):
        """_write sets exactly the addressed LSCs, as writing them into the
        linearized LSC planes and merging those back does, also where two or
        three addresses name bits of one pixel; MSCs and bit 3 never change."""
        rng = np.random.default_rng(26)
        for _ in range(60):
            h, w = (int(v) for v in rng.integers(2, 30, size=2))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            repetition = int(rng.integers(1, 4))
            k = img.size // 4
            triple, pair, single = rng.permutation(img.size)[:3 * k].reshape(3, k, 1)
            skipped = rng.integers(0, 3, size=(k, 1))
            addresses = rng.permutation(np.concatenate([
                (3 * triple + [0, 1, 2]).ravel(),                 # all three LSCs
                (3 * pair + (skipped + [1, 2]) % 3).ravel(),      # two of three
                (3 * single + rng.integers(0, 3, size=(k, 1))).ravel()]))
            n = addresses.size // repetition
            addresses = addresses[:n * repetition]
            mixed = rng.integers(0, 2, size=n, dtype=np.uint8)
            lsc = planes_reference(img, LSC_BITS)
            lsc[addresses] = np.tile(mixed, repetition)
            got = _write(img, mixed, addresses, repetition)
            assert np.array_equal(got, merge_reference(lsc, img))
            assert np.array_equal(got & np.uint8(0xF8), img & np.uint8(0xF8))
            free = np.ones(lsc.size, dtype=bool)
            free[addresses] = False
            assert np.array_equal(planes_reference(got, LSC_BITS)[free],
                                  planes_reference(img, LSC_BITS)[free])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 5), (256, 256)])
    def test_msc_bytes_are_packed_msc_planes(self, shape):
        img = np.random.default_rng(shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
        packed = np.packbits(planes_reference(img, MSC_BITS))
        assert np.array_equal(_msc_bytes(img), packed)
        assert fold_digest(_msc_bytes(img)) == fold_digest_reference(packed)


class TestFoldAndSeeds:
    def test_all_zero_fold_constant(self):
        # 32768 zero bytes rotate the init through a whole number of cycles
        zeros = np.zeros(256 * 256 // 2, dtype=np.uint8)
        assert fold_digest(zeros) == FOLD_INIT == 0x811C9DC5
        assert fold_digest(zeros) == fold_digest_reference(zeros)

    def test_fold_matches_reference_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            data = rng.integers(0, 256, size=int(rng.integers(1, 512)), dtype=np.uint8)
            assert fold_digest(data) == fold_digest_reference(data)

    @settings(max_examples=60, deadline=None)
    @given(nbytes=st.integers(0, 500), seed=st.integers(0, 2**32 - 1))
    @example(nbytes=0, seed=1)
    @example(nbytes=1, seed=2)
    @example(nbytes=31, seed=3)
    @example(nbytes=32, seed=4)
    @example(nbytes=33, seed=5)
    @example(nbytes=256, seed=6)
    @example(nbytes=480, seed=7)
    @example(nbytes=499, seed=8)
    def test_closed_form_equals_fold_loop(self, nbytes, seed):
        data = np.random.default_rng(seed).integers(0, 256, size=nbytes, dtype=np.uint8)
        assert fold_digest(data) == fold_digest_reference(data)

    def test_single_bit_changes_digest(self):
        rng = np.random.default_rng(24)
        data = rng.integers(0, 256, size=1024, dtype=np.uint8)
        base = fold_digest(data)
        for pos in rng.integers(0, 8192, size=50):
            flipped = data.copy()
            flipped[pos // 8] ^= np.uint8(1 << int(pos % 8))
            assert fold_digest(flipped) != base

    def test_unauth_mode_passthrough(self):
        key = EmbeddingKey(KEY1, KEY2, mode="unauth")
        msc = np.full(8, 0xFF, dtype=np.uint8)
        assert derive_strategy_seed(key, msc) == (KEY1, KEY2)

    @pytest.mark.parametrize("mode, calls", [("unauth", 0), ("auth", 2)])
    def test_msc_planes_built_in_auth_mode_only(self, mode, calls):
        """Only auth mode packs the MSCs, once per embed and once per
        extract; unauth mode reads no pixel for its schedule."""
        key = EmbeddingKey(KEY1, KEY2, mode=mode)
        car, wm = synthetic_carrier(3), synthetic_watermark(0)
        with mock.patch("cimark.watermark._msc_bytes", wraps=_msc_bytes) as spy:
            assert similarity(wm, extract(embed(car, wm, key), key)) == 100.0
        assert spy.call_count == calls

    def test_auth_mode_single_msc_bit_changes_seeds(self):
        key = EmbeddingKey(KEY1, KEY2, mode="auth")
        rng = np.random.default_rng(25)
        msc = rng.integers(0, 256, size=128, dtype=np.uint8)
        base = derive_strategy_seed(key, msc)
        flipped = msc.copy()
        flipped[62] ^= np.uint8(0b1000)
        derived = derive_strategy_seed(key, flipped)
        assert derived != base

    def test_seeds_never_zero(self):
        key = EmbeddingKey(FOLD_INIT, 0, mode="auth")
        zeros = np.zeros(256 * 256 // 2, dtype=np.uint8)
        s1, s2 = derive_strategy_seed(key, zeros)
        assert s1 != 0 and s2 != 0


class TestKey:
    @pytest.mark.parametrize("repetition", [2.5, math.nan, "2"])
    def test_repetition_not_whole_rejected(self, repetition):
        """A fractional or NaN repetition used to be accepted and then fail
        inside numpy at embed time."""
        with pytest.raises(ValueError, match="repetition must be a whole number"):
            EmbeddingKey(KEY1, KEY2, repetition=repetition)

    @pytest.mark.parametrize("seed", [2.5, math.nan, "7"])
    @pytest.mark.parametrize("name", ["seed1", "seed2"])
    def test_seed_not_whole_rejected(self, monkeypatch, name, seed):
        """A fractional, NaN or string seed used to construct a key and
        then fail inside _rotl32 or numpy with a TypeError at embed time; it
        is refused by name, in the key and in the sweep, before any draw."""
        import cimark.watermark as wmk

        def no_schedule(*a, **kw):
            raise AssertionError("scheduled before checking the seeds")

        seeds = {"seed1": KEY1, "seed2": KEY2, name: seed}
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            EmbeddingKey(**seeds)
        monkeypatch.setattr(wmk, "_schedules", no_schedule)
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            robustness_sweep(synthetic_carrier(3, 64), synthetic_watermark(0, 8), **seeds,
                             attacks=[("crop", 4)])

    def test_whole_seeds_stored_as_int(self):
        """np.float64(3.0), True and a numpy integer are whole numbers: the
        key stores their ints and embeds as with those ints."""
        key = EmbeddingKey(np.float64(3.0), np.uint32(KEY2), mode="auth")
        assert (key.seed1, key.seed2) == (3, KEY2)
        assert type(key.seed1) is int and type(key.seed2) is int
        carrier, wm = synthetic_carrier(3, 64), synthetic_watermark(0, 8)
        assert np.array_equal(embed(carrier, wm, key),
                              embed(carrier, wm, EmbeddingKey(3, KEY2, mode="auth")))
        assert EmbeddingKey(True, KEY2).seed1 == 1

    def test_whole_repetition_stored_as_int(self):
        key = EmbeddingKey(KEY1, KEY2, repetition=3.0)
        assert key.repetition == 3 and type(key.repetition) is int

    def test_wm_dims_not_whole_rejected(self, monkeypatch):
        import cimark.watermark as wmk

        def no_schedule(*a, **kw):
            raise AssertionError("scheduled before checking wm_dims")

        monkeypatch.setattr(wmk, "_schedules", no_schedule)
        with pytest.raises(ValueError, match="wm_dims entry must be a whole number, got 2.5"):
            extract(synthetic_carrier(3, 64), EmbeddingKey(KEY1, KEY2), wm_dims=(2.5, 4))

    @pytest.mark.parametrize("wm_dims", [5, None, (4,), (2, 2, 2)])
    def test_wm_dims_not_a_pair_rejected(self, monkeypatch, wm_dims):
        """A wm_dims that is not two entries used to fail with a bare
        TypeError or unpacking error; it is refused by name, before any
        draw."""
        import cimark.watermark as wmk

        def no_schedule(*a, **kw):
            raise AssertionError("scheduled before checking wm_dims")

        monkeypatch.setattr(wmk, "_schedules", no_schedule)
        with pytest.raises(ValueError, match=r"wm_dims must be a pair \(height, width\)"):
            extract(synthetic_carrier(3, 64), EmbeddingKey(KEY1, KEY2), wm_dims=wm_dims)


class TestMixture:
    DERIVED = (KEY1, KEY2)

    def test_mixture_decorrelates(self):
        for mix in ("ci", "xor"):
            mask, _ = key_stream(self.DERIVED, mix, 4096, 196_608, 4096)
            assert mask.dtype == np.uint8 and mask.shape == (4096,)
            assert 0.35 < mask.mean() < 0.65

    def test_xor_mask_is_generator_keystream(self):
        for n in (1, 7, 4096):
            mask, _ = key_stream(self.DERIVED, "xor", n, 196_608, n)
            assert np.array_equal(mask, CiGenerator.from_seeds(*self.DERIVED).bits(n))


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

    @pytest.mark.parametrize("m_total", [1, 2, 3, 196_608, 2**31 - 1, 2**31, 2**31 + 1,
                                         2**62 + 1])
    def test_block_edges_match_reference(self, m_total):
        """The blocked scan at counts one short of a block, one block, one
        past it and two blocks and one, so the in-block doubling, the block
        carries and the partial last block all run, on int64 (M <= 2^31) and
        on Python integers (past it), against the step-at-a-time recurrence
        over strategy values spanning the int64 range and over the largest
        terms, t_k = M - 1 for every k, where every sum is at its bound."""
        b = _block_length(m_total)
        k = np.arange(2 * b + 1)
        largest = (m_total - k) % m_total  # S_k + k - 1 = M - 1 (mod M), S_0 = M - 1
        largest[0] = m_total - 1
        spanning = np.random.default_rng(m_total % 1000).integers(
            -2**63, 2**63 - 1, size=2 * b + 1, endpoint=True)
        spanning[:2] = (-2**63, 2**63 - 1)
        for s in (spanning, largest):
            for count in (b - 1, b, b + 1, 2 * b + 1):
                assert embedding_sequence(s, m_total, count).tolist() == \
                    doubling_reference(s, m_total, count), count

    def test_block_length_values(self):
        """B, the largest power of two with 2^B M < 2^62 (1 where none is)."""
        moduli = (1, 2, 3, 196_608, 2**31 - 1, 2**31, 2**31 + 1, 2**45, 2**60, 2**61,
                  2**62 + 1)
        assert [_block_length(m) for m in moduli] == [32, 32, 32, 32, 16, 16, 16, 16, 1, 1, 1]

    @pytest.mark.parametrize("m_total", [1, 196_608, 2**31, 2**31 + 1, 2**62 + 1])
    @pytest.mark.parametrize("count", [0, 1, 31, 33, 300])
    def test_rows_match_reference(self, m_total, count):
        """A 2-D input is one recurrence per row along its last axis, on
        int64 (M <= 2^31) and on Python integers (past it): each row equals
        the step-at-a-time recurrence over that row alone, here with rows
        that differ in their first term only and rows longer than count."""
        rng = np.random.default_rng(count + m_total % 1000)
        s = rng.integers(0, 2**40, size=(5, 301))
        s[1, 1:] = s[0, 1:]
        s[1, 0] = s[0, 0] + 1
        got = embedding_sequence(s, m_total, count)
        assert got.shape == (5, count) and got.dtype == np.int64
        for row, values in zip(s, got):
            assert values.tolist() == doubling_reference(row, m_total, count)

    def test_rows_of_no_rows_and_one_row(self):
        s = np.random.default_rng(33).integers(0, 4096, size=(1, 100))
        assert embedding_sequence(s[:0], 196_608, 50).shape == (0, 50)
        assert embedding_sequence(s, 196_608, 50).tolist() == \
            [embedding_sequence(s[0], 196_608, 50).tolist()]

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 64, 1000, 1025])
    def test_every_length_matches_reference(self, count):
        s = np.random.default_rng(32).integers(0, 4096, size=1025)
        assert embedding_sequence(s, 196_608, count).tolist() == \
            doubling_reference(s, 196_608, count)


def first_occurrences_reference(u):
    """Mask of each value's first position in u, by a stable argsort."""
    order = np.argsort(u, kind="stable")
    ordered = u[order]
    head = np.ones(u.size, dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    mask = np.zeros(u.size, dtype=bool)
    mask[order[head]] = True
    return mask


class TestFirstOccurrences:
    @pytest.mark.parametrize("m_total, size, spread", [
        (1, 7, 1),
        (50, 200, 50),                 # every value repeats
        (196_608, 4672, 196_608),      # the sweep's first scan
        (196_608, 4672, 300),          # many repeats
        (2**61 - 1, 4, 2**61 - 1),     # M L just under 2^63: int64 keys near the top
        (2**61, 4, 2**61),             # M L = 2^63: Python-integer keys
        (2**62 + 1, 5000, 40),         # M L >= 2^63, many repeats
        (2**62 + 1, 5000, 2**62 + 1),
    ])
    def test_equals_stable_argsort_reference(self, m_total, size, spread):
        """Both key dtypes: int64 keys while M L < 2^63, Python integers
        past it."""
        rng = np.random.default_rng(size + spread % 97)
        u = rng.integers(0, spread, size=size, dtype=np.int64)
        if spread > 2**40:  # plant repeats among values that rarely collide
            u[size // 2:] = rng.choice(u[:size // 2 + 1], size - size // 2)
            u[0] = m_total - 1
        assert np.array_equal(_first_occurrences(u, m_total), first_occurrences_reference(u))

    @pytest.mark.parametrize("m_total", [300, 2**61])
    def test_rows_equal_reference_row_by_row(self, m_total):
        """Each row of a 2-D input is marked on its own, with int64 keys
        (M L < 2^63) and Python-integer keys (M L >= 2^63): rows holding
        the same values in other orders, a row of one repeated value and
        rows with no repeats, so a sort across rows fails."""
        rng = np.random.default_rng(m_total % 997)
        base = rng.integers(0, 40, size=60)
        u = np.stack([base, base[::-1], np.roll(base, 7), np.full(60, 5),
                      rng.permutation(60), rng.integers(0, m_total, size=60)])
        first = _first_occurrences(u, m_total)
        assert first.shape == u.shape
        for row, marked in zip(u, first):
            assert np.array_equal(marked, first_occurrences_reference(row))
        assert _first_occurrences(u[:0], m_total).shape == (0, 60)


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
        return strategy_reference(self.DERIVED, n_mix, length)

    @pytest.mark.parametrize("n_mix, m_total, count, reach", [
        (4096, 196_608, 4096, "prefix"),  # 64x64 watermark, 256x256 carrier
        (7, 1, 1, "prefix"),
        (3, 5, 4, "prefix"),
        (64, 100, 100, "rescan"),         # count == M
        (1, 100, 100, "prefix"),          # constant strategy, count == M
        (64, 64, 64, "rescan"),           # count == M
        (2, 64, 64, "rescan"),            # count == M
    ])
    def test_equals_first_distinct_reference(self, n_mix, m_total, count, reach):
        want, last = distinct_addresses_reference(
            self.strategy(n_mix, 16 * count + 4097), m_total, count)
        _, got = key_stream(self.DERIVED, "ci", n_mix, m_total, count)
        assert got.tolist() == want
        # whether the first scan, of count + count // 8 + 64 values, suffices
        assert reach == ("prefix" if last < count + count // 8 + 64 else "rescan")

    @pytest.mark.parametrize("n_mix, m_total, count, reach", [
        (1, 50, 30, "prefix"),                                   # b = 0: every cell 0
        *[(1 << b, 300, 40, "prefix") for b in range(1, 17)],    # table reads
        (1 << 17, 300, 40, "prefix"),                            # b = 17, uint32 cells
        (3, 300, 40, "prefix"),                                  # full words mod n
        (4095, 300, 40, "prefix"),                               # .. below 2^16
        ((1 << 16) + 1, 300, 40, "prefix"),                      # .. past 2^16
        (64, 256, 256, "rescan"),  # only the rescan draws on after the table read
    ])
    def test_key_stream_equals_words_mod_n(self, n_mix, m_total, count, reach):
        """Both ways of reading the strategy cells, the low b bits at n = 2^b
        and whole words (b = 32) mod n elsewhere, give the mask and the
        addresses of the scalar chain's words mod n."""
        first = xorshift_step(self.DERIVED[0])
        flips = 6 * n_mix + (first & 1) + (xorshift_step(first) & 1)
        s = self.strategy(n_mix, max(flips, 16 * count + 4097))
        want, last = distinct_addresses_reference(s, m_total, count)
        mask, got = key_stream(self.DERIVED, "ci", n_mix, m_total, count)
        assert got.tolist() == want
        assert np.array_equal(mask, np.bincount(s[:flips], minlength=n_mix) & 1)
        first_scan = count + count // 8 + 64
        assert reach == ("prefix" if last < first_scan else "rescan")
        if reach == "rescan":  # it reads words drawn after the table read
            assert first_scan <= flips <= last

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), m_total=st.integers(1, 300), count=st.integers(1, 300),
           mix=st.sampled_from(["ci", "xor"]),
           derived=st.tuples(st.integers(1, 2**32 - 1), st.integers(1, 2**32 - 1)))
    @example(n=1, m_total=100, count=100, mix="ci", derived=(1, 2))
    @example(n=2, m_total=64, count=64, mix="xor", derived=(0x1234567, 0x89ABCDE))
    def test_addresses_equal_first_distinct_reference(self, n, m_total, count, mix,
                                                      derived):
        count = min(count, m_total)  # count == m_total about half the time
        strategy = strategy_reference(derived, n, 16 * count + 4097)
        try:
            want, _ = distinct_addresses_reference(strategy, m_total, count)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                key_stream(derived, mix, n, m_total, count)
            return
        _, got = key_stream(derived, mix, n, m_total, count)
        assert got.tolist() == want

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
        # value scanned. 200 values are held, the rest are drawn.
        m_total, count, held = 1000, 2, 200
        s = self.pinned(4130, m_total, hit)
        draw = _ServeStream(s[held:]).fill

        def redraw(rows, length):  # the held values, continued by the served ones
            return np.concatenate([s[:held], draw(length - held)])[None]

        if hit <= 4128:
            want, last = distinct_addresses_reference(s, m_total, count)
            assert (want, last) == ([0, 1], hit)
            got = _address_rows(s[:held][None], redraw, m_total, count)[0]
            assert got.tolist() == want
        else:
            with pytest.raises(RuntimeError):
                distinct_addresses_reference(s, m_total, count)
            with pytest.raises(RuntimeError):
                _address_rows(s[:held][None], redraw, m_total, count)

    def test_capacity_checked_first(self):
        with pytest.raises(ValueError):
            key_stream(self.DERIVED, "ci", 16, 10, 11)


def key_stream_reference(derived, mix, n, m_total, count):
    """(mask, addresses, flips, reach) of one derived seed pair from its
    strategy words mod n, drawn from the scalar chain: the mask is the flip parity of
    the first flips = 6n + (two low bits after seed 1) cells (mix "ci") or
    the generator keystream (mix "xor"); the addresses are the first
    `count` distinct terms of the recurrence, one step at a time; reach
    says whether the first scan, of count + count // 8 + 64 terms, finds
    them."""
    first = xorshift_step(derived[0])
    flips = 6 * n + (first & 1) + (xorshift_step(first) & 1)
    s = strategy_reference(derived, n, max(flips, 16 * count + 4097))
    addresses, last = distinct_addresses_reference(s, m_total, count)
    reach = "prefix" if last < count + count // 8 + 64 else "rescan"
    if mix == "xor":
        mask = CiGenerator.from_seeds(*derived).bits(n)
    else:
        mask = np.bincount(s[:flips], minlength=n) & 1
    return mask, addresses, flips, reach


# Derived seed pairs whose flips are 6n + 0, 1, 1, 1, 1, 2, 1, 0; at
# (n, M, count) = (64, 64, 56) rows 0, 1 and 4 need the rescan, the others
# do not.
MIXED = [((0x1234567 * i) & 0xFFFFFFFF, 0x89ABCDE + i) for i in range(1, 9)]


class TestKeyStreams:
    """Each row of one batched _key_streams call against its own
    reference."""

    @staticmethod
    def check(derived, mix, n, m_total, count):
        """Every row equals its reference; returns the rows' (flips, reach)."""
        got = _key_streams(derived, mix, n, m_total, count)
        assert len(got) == len(derived)
        seen = []
        for d, (mask, addresses) in zip(derived, got):
            want_mask, want_addresses, flips, reach = key_stream_reference(
                d, mix, n, m_total, count)
            assert mask.dtype == np.uint8 and np.array_equal(mask, want_mask), d
            assert addresses.tolist() == want_addresses, d
            seen.append((flips - 6 * n, reach))
        return seen

    def test_no_rows(self):
        assert _key_streams([], "ci", 64, 64, 64) == []

    @pytest.mark.parametrize("rows, reaches", [
        ([4], ["rescan"]),
        ([2, 1], ["prefix", "rescan"]),
        (range(8), ["rescan", "rescan", "prefix", "prefix", "rescan", "prefix", "prefix",
                    "prefix"]),
    ], ids=["rescan-alone", "prefix-rescan", "eight"])
    def test_rescan_rows_next_to_prefix_rows(self, rows, reaches):
        """Only the rows the first scan leaves short are scanned again,
        each over its own redrawn cells, and rows with 0, 1 and 2 extra
        flips each take their own mask."""
        seen = self.check([MIXED[i] for i in rows], "ci", 64, 64, 56)
        assert [reach for _, reach in seen] == reaches
        if len(seen) == 8:
            assert [extra for extra, _ in seen] == [0, 1, 1, 1, 1, 2, 1, 0]

    def test_every_row_rescanned(self):
        seen = self.check(MIXED[:3], "ci", 64, 64, 64)  # count == M
        assert [reach for _, reach in seen] == ["rescan"] * 3

    @pytest.mark.parametrize("n", [4096, 1920])
    def test_fifteen_rows(self, n):
        """The sweep's batch: 15 rows, at a power of two (low-bit table
        reads) and at the 48x40 watermark's n (whole words mod n)."""
        derived = [(KEY1 ^ (977 * i), KEY2 + i) for i in range(15)]
        self.check(derived, "ci", n, 196_608, n)

    def test_xor_mix(self):
        self.check(MIXED[:4], "xor", 64, 200, 134)

    def test_repetition_draws_past_the_flips(self):
        # count + count // 8 + 64 = 4 * 64 + 32 + 64 cells exceed 6n + 2
        self.check(MIXED[:3], "ci", 64, 196_608, 4 * 64)

    def test_modulus_past_int64_scan(self):
        self.check(MIXED[:3], "ci", 64, 2**31 + 1, 64)

    def test_capacity_checked_before_any_draw(self, monkeypatch):
        import cimark.watermark as wmk

        def no_draw(*a, **kw):
            raise AssertionError("drew before checking the capacity")

        for name in ("xorshift_step", "_strategy_cells", "_length_chain", "_low_bit_rows"):
            monkeypatch.setattr(wmk, name, no_draw)
        with pytest.raises(ValueError, match="11 LSCs, image has 10"):
            _key_streams(MIXED[:2], "ci", 16, 10, 11)
        with pytest.raises(ValueError, match="at least one bit"):
            _key_streams(MIXED[:2], "ci", 0, 10, 5)


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
            assert np.array_equal(planes_reference(marked, MSC_BITS),
                                  planes_reference(car, MSC_BITS))

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

    def test_oversized_extract_rejected_before_drawing(self):
        # 10^6 watermark bits cannot fit 196,608 LSCs, so no strategy value
        # (4 bytes each, about 6 per bit) may be drawn for them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="LSCs"):
                extract(synthetic_carrier(8), EmbeddingKey(KEY1, KEY2),
                        wm_dims=(1000, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

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

    @pytest.mark.parametrize("mode", ["unauth", "auth"])
    @pytest.mark.parametrize("repetition", [1, 3])
    def test_extract_reads_only_addressed_lscs(self, mode, repetition):
        """Scrambling every LSC that no address names leaves extraction
        unchanged: it reads the addressed LSCs and, in auth mode, the MSCs."""
        key = EmbeddingKey(KEY1, KEY2, mode=mode, repetition=repetition)
        car, wm = synthetic_carrier(4), synthetic_watermark(4)
        marked = embed(car, wm, key)
        _, addresses = _schedules([marked], key, wm.size)[0]
        lsc = planes_reference(marked, LSC_BITS)
        free = np.ones(lsc.size, dtype=bool)
        free[addresses] = False
        lsc[free] = np.random.default_rng(repetition).integers(0, 2, size=free.sum())
        scrambled = merge_reference(lsc, marked)
        assert np.count_nonzero(scrambled != marked) > marked.size // 2
        assert np.array_equal(extract(scrambled, key), extract(marked, key))

    @settings(max_examples=30, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_lsc_at_equals_lsc_planes(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        addresses = rng.integers(0, 3 * h * w, size=50)
        assert np.array_equal(lsc_at(img, addresses),
                              planes_reference(img, LSC_BITS)[addresses])


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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
    def test_empty_images_refused(self, shape):
        """No bit to compare: refused like an empty PSNR, not NaN."""
        with pytest.raises(ValueError):
            similarity(np.zeros(shape, np.uint8), np.zeros(shape, np.uint8))


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

    def test_rows_equal_single_attack_path(self):
        # Non-square sides that are not multiples of 8 (JPEG padding), a
        # non-square watermark, interleaved families and repeated cells:
        # every row must equal a fresh embed, one ATTACKS call and one
        # extract, so the sweep's shared work is checked against the
        # single-attack path rather than against itself.
        carrier = synthetic_carrier(5, 240)[:203, 11:]
        wm = synthetic_watermark(5, 48)[:, :40]
        grid = [("jpeg", 5), ("rotate", 10), ("noise", 2), ("crop", 40), ("jpeg", 20),
                ("rotate", 2.5), ("noise", 0.5), ("jpeg", 5), ("crop", 7.9), ("noise", 3),
                ("crop", 3), ("noise", 3)]
        noise_seed = 0xC0FFEE
        want = []
        for kind, param in grid:
            for mode in ("unauth", "auth"):
                key = EmbeddingKey(KEY1, KEY2, mode=mode)
                attacked = ATTACKS[kind](embed(carrier, wm, key), param, noise_seed)
                recovered = extract(attacked, key, wm_dims=wm.shape)
                want.append((kind, param, mode, similarity(wm, recovered)))
        got = robustness_sweep(carrier, wm, KEY1, KEY2, grid, noise_seed=noise_seed)
        assert got == want

    @pytest.mark.parametrize("kind, bad", [
        ("crop", (257, -1, math.nan, math.inf, "5", None)),
        ("rotate", (0, 90, -3, math.nan, math.inf, "5", None)),
        ("jpeg", (0, -1, math.nan, math.inf, "5", None)),
        ("noise", (0, -0.5, math.nan, math.inf, "5", None)),
        ("noise_seed", (-1, 1.5)),
    ], ids=["crop", "rotate", "jpeg", "noise", "noise_seed"])
    def test_bad_parameter_rejected_before_any_work(self, monkeypatch, kind, bad):
        """A bad parameter, or a bad noise_seed for a sound noise cell, is
        refused as the attack alone refuses it, before the first embed."""
        import cimark.watermark as wmk

        def no_embed(*a, **kw):
            raise AssertionError("embedded before validating the grid")

        carrier, wm = synthetic_carrier(3), synthetic_watermark(0)
        for value in bad:
            attack, param, seed = ("noise", 2.0, value) if kind == "noise_seed" else (kind, value, 1)
            with pytest.raises(ValueError) as single:
                ATTACKS[attack](carrier, param, seed)
            with monkeypatch.context() as m:
                m.setattr(wmk, "embed", no_embed)
                with pytest.raises(ValueError) as swept:
                    robustness_sweep(carrier, wm, KEY1, KEY2,
                                     [("crop", 10), ("jpeg", 5), (attack, param)],
                                     noise_seed=seed)
            assert str(swept.value) == str(single.value)

    @pytest.mark.parametrize("shape", [(256,), (4, 8, 8)], ids=["1-D", "3-D"])
    def test_watermark_not_2d_rejected_before_any_work(self, monkeypatch, shape):
        """A watermark that is not 2-D used to be embedded in both modes and
        only then fail inside extract with a bare unpacking error."""
        import cimark.watermark as wmk

        def no_embed(*a, **kw):
            raise AssertionError("embedded before validating the watermark")

        monkeypatch.setattr(wmk, "embed", no_embed)
        wm = synthetic_watermark(0, 16).reshape(shape)
        with pytest.raises(ValueError, match=r"2-D.*" + re.escape(str(shape))):
            robustness_sweep(synthetic_carrier(3, 64), wm, 1, 2, [("crop", 4)])

    def test_noise_seed_none_rejected_before_any_work(self, monkeypatch):
        """noise_seed=None used to draw OS entropy, so the noise rows changed
        from run to run; a grid without a noise cell does not need a seed."""
        import cimark.watermark as wmk

        carrier, wm = synthetic_carrier(3, 64), synthetic_watermark(0, 16)
        rows = robustness_sweep(carrier, wm, 1, 2, [("crop", 4)], noise_seed=None)
        assert [r[:3] for r in rows] == [("crop", 4, "unauth"), ("crop", 4, "auth")]

        def no_embed(*a, **kw):
            raise AssertionError("embedded before validating the noise seed")

        monkeypatch.setattr(wmk, "embed", no_embed)
        with pytest.raises(ValueError, match="explicit seed"):
            robustness_sweep(carrier, wm, 1, 2, [("crop", 4), ("noise", 2.0)],
                             noise_seed=None)

    def test_shared_work_counted(self, monkeypatch):
        """Over BENCH_GRID the sweep runs the forward DCT once per marked
        image, one inverse per JPEG cell and mode, one rotation map per
        rotate cell, one standard normal draw for every noise cell, one
        embed (auth) and one key schedule per auth extract plus the shared
        unauth one: 17 schedule rows in 3 _key_streams calls (the unauth
        schedule, the auth embed's, and one batch for the 15 auth reads);
        shared_work, which `cimark bench` reports, counts the same. The
        attack halves are spied on cimark.imaging, where attack_cells looks
        them up."""
        import cimark.watermark as wmk

        halves = ("jpeg_forward", "jpeg_inverse", "rotation_map", "standard_noise")
        names = halves + ("_key_streams", "embed")
        calls = dict.fromkeys(names, 0)
        rows = []

        def counting(name, fn):
            def wrapper(*a, **kw):
                calls[name] += 1
                if name == "_key_streams":
                    rows.append(len(a[0]))
                return fn(*a, **kw)
            return wrapper

        for name in names:
            module = imaging if name in halves else wmk
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        robustness_sweep(synthetic_carrier(3), synthetic_watermark(0), KEY1, KEY2,
                         BENCH_GRID, noise_seed=0x5EED)
        assert calls == {"jpeg_forward": 2, "jpeg_inverse": 8, "rotation_map": 4,
                         "standard_noise": 1, "_key_streams": 3, "embed": 1}
        assert rows == [1, 1, 15]
        assert shared_work(BENCH_GRID) == {
            "forward_dcts": calls["jpeg_forward"], "rotation_maps": calls["rotation_map"],
            "noise_draws": calls["standard_noise"], "key_schedules": sum(rows)}

    @pytest.mark.parametrize("grid", [
        [],
        [("crop", 4)],
        [("noise", 2), ("rotate", 5), ("noise", 2), ("rotate", 5), ("noise", 0.5)],
        [("jpeg", 5), ("jpeg", 5), ("crop", 0)],
    ], ids=["empty", "crop", "noise-rotate", "jpeg"])
    def test_shared_work_matches_calls(self, monkeypatch, grid):
        """shared_work counts what the sweep runs on other grids too:
        nothing on an empty one, and repeated cells."""
        import cimark.watermark as wmk

        spies = {"forward_dcts": (imaging, "jpeg_forward"),
                 "rotation_maps": (imaging, "rotation_map"),
                 "noise_draws": (imaging, "standard_noise"),
                 "key_schedules": (wmk, "_key_streams")}
        for module, name in spies.values():
            monkeypatch.setattr(module, name, mock.Mock(wraps=getattr(module, name)))
        robustness_sweep(synthetic_carrier(3, 64), synthetic_watermark(0, 16), KEY1, KEY2,
                         grid, noise_seed=0x5EED)
        counted = {key: getattr(module, name).call_count
                   for key, (module, name) in spies.items()}
        # schedule rows: one per derived seed pair handed to _key_streams
        counted["key_schedules"] = sum(len(c.args[0]) for c in wmk._key_streams.call_args_list)
        assert shared_work(grid) == counted

    def test_memory_bounded(self):
        """One BENCH_GRID sweep, which keeps the 15 auth attacked images
        for one batched key schedule, peaks under 5.5 MiB traced; each
        kind's shared work and each cell's own rotation map or offsets are
        dropped as soon as they are done with."""
        carrier, wm = synthetic_carrier(3), synthetic_watermark(0)
        robustness_sweep(carrier, wm, KEY1, KEY2, BENCH_GRID, noise_seed=0x5EED)  # caches
        tracemalloc.start()
        try:
            robustness_sweep(carrier, wm, KEY1, KEY2, BENCH_GRID, noise_seed=0x5EED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20

    def test_noise_attack_needs_seed(self):
        img = synthetic_carrier(3, 64)
        with pytest.raises(ValueError, match="explicit seed"):
            ATTACKS["noise"](img, 2.0, None)


# First 16 hex digits of the sha256 of (marked image, extract of the marked
# image, of jpeg_attack(marked, 5), of crop_attack(marked, 100)), per
# (seed, mode, mix, repetition); carrier and watermark are those of the
# seed, the key is (KEY1 ^ seed, KEY2). Recorded from the key schedule built
# of _mixture, _KeyStream and mix_watermark, so any rewrite of the mixture or
# the address search must reproduce them bit for bit.
GOLDEN_EMBED_EXTRACT = {
    (1, 'unauth', 'ci', 1): ('2e7a10cba6aac316', '38854f0b0c701fca', '1823ddebe1003fc5', '47020c83cec45f65'),
    (1, 'unauth', 'ci', 3): ('a2744d7bca9d84dc', '38854f0b0c701fca', 'e6fa3fbaa07c23a1', '7afa07e2e869a1dc'),
    (1, 'unauth', 'xor', 1): ('4b4d538b182eb471', '38854f0b0c701fca', '4552ee6e9c4763d9', '473ad4749103ea47'),
    (1, 'unauth', 'xor', 3): ('c8b15904bc623764', '38854f0b0c701fca', '162f92e046a02176', 'd5bef0f5b763e311'),
    (1, 'auth', 'ci', 1): ('e28b5d8a4b2b8b0e', '38854f0b0c701fca', '49d7f13791f119da', 'a5478676dcdbfcb2'),
    (1, 'auth', 'ci', 3): ('63ee45d5d4f5fd12', '38854f0b0c701fca', '04cbf8049c468201', 'ef52919817b82edc'),
    (1, 'auth', 'xor', 1): ('f4b28fb28341e348', '38854f0b0c701fca', '6549556771798a46', '92f2d81d7ce536d0'),
    (1, 'auth', 'xor', 3): ('a11c5642a7fc7afb', '38854f0b0c701fca', '37584e5246e47ad3', 'cb106374538af749'),
    (2, 'unauth', 'ci', 1): ('6a46d70da5434b91', '8edfd6cda95aa377', '5d0a2af6f3ee1d0a', '0fe856ba0f19c827'),
    (2, 'unauth', 'ci', 3): ('389f05676ee80ef0', '8edfd6cda95aa377', '3af4c80e6e81e6be', 'c085d65435f2153e'),
    (2, 'unauth', 'xor', 1): ('08915ba96f91a5c7', '8edfd6cda95aa377', '70eacfc655e27719', 'aa8a4464152c84eb'),
    (2, 'unauth', 'xor', 3): ('ab5b04e272b56290', '8edfd6cda95aa377', 'b8e19ce16f0dfe89', '5ad17240a3c80c97'),
    (2, 'auth', 'ci', 1): ('7ce86baebd77a8cc', '8edfd6cda95aa377', '9d49dc52d9442831', 'c1a4ed9cc9f88cba'),
    (2, 'auth', 'ci', 3): ('614a8a681c3fc278', '8edfd6cda95aa377', 'd96d517bf8073333', '2576909ec69aad36'),
    (2, 'auth', 'xor', 1): ('6a0576fb85c39efa', '8edfd6cda95aa377', '3d9ca181c2cb0012', '2481ba13197a404f'),
    (2, 'auth', 'xor', 3): ('d0b9e14deb12f63c', '8edfd6cda95aa377', '418c0e57d1d6e568', 'c0ff95558b7ce7a3'),
    (3, 'unauth', 'ci', 1): ('19d573440a943bb0', 'f30e28152dd357c4', 'a922d8bfdd5b99b2', '4321d7d43725bd03'),
    (3, 'unauth', 'ci', 3): ('2afeb86e8d464b05', 'f30e28152dd357c4', '549a85b0209a60af', 'd98b0af8045e0ede'),
    (3, 'unauth', 'xor', 1): ('fed5e0e92e29d233', 'f30e28152dd357c4', 'ca4faada238dc0c8', '6f34cf8fc8e9e552'),
    (3, 'unauth', 'xor', 3): ('f18cc022bbf4eaf3', 'f30e28152dd357c4', 'c5d7627f64b6a3e2', '8b99bd91c9e8beca'),
    (3, 'auth', 'ci', 1): ('6b1a90cd6e97cb2d', 'f30e28152dd357c4', '73c04690c2870c10', 'b5ade8429486806e'),
    (3, 'auth', 'ci', 3): ('a3634b9dbb89884d', 'f30e28152dd357c4', '4cc228e3cd0cd420', '57125f23f4fed7ab'),
    (3, 'auth', 'xor', 1): ('45866254dd70f680', 'f30e28152dd357c4', '2ea3c33de040be33', 'e29ebde16611740f'),
    (3, 'auth', 'xor', 3): ('5ff84b5023fc4305', 'f30e28152dd357c4', '58c8801448312c7b', 'd0ae84b7a4302659'),
}

# robustness_sweep over cli.BENCH_GRID on carrier 3 / watermark 0, keys
# (KEY1, KEY2), noise seed 0x5EED; similarities as float.hex.
GOLDEN_SWEEP = [
    ('crop', 10, 'unauth', '0x1.8f83000000000p+6'),
    ('crop', 10, 'auth', '0x1.93b6000000000p+5'),
    ('crop', 50, 'unauth', '0x1.8975000000000p+6'),
    ('crop', 50, 'auth', '0x1.82ea000000000p+5'),
    ('crop', 100, 'unauth', '0x1.72b4000000000p+6'),
    ('crop', 100, 'auth', '0x1.87cc000000000p+5'),
    ('crop', 200, 'unauth', '0x1.17c9000000000p+6'),
    ('crop', 200, 'auth', '0x1.87fe000000000p+5'),
    ('rotate', 2, 'unauth', '0x1.8a88000000000p+6'),
    ('rotate', 2, 'auth', '0x1.8f38000000000p+5'),
    ('rotate', 5, 'unauth', '0x1.7ee9000000000p+6'),
    ('rotate', 5, 'auth', '0x1.8d12000000000p+5'),
    ('rotate', 10, 'unauth', '0x1.737c000000000p+6'),
    ('rotate', 10, 'auth', '0x1.9f3c000000000p+5'),
    ('rotate', 25, 'unauth', '0x1.5c25000000000p+6'),
    ('rotate', 25, 'auth', '0x1.8f06000000000p+5'),
    ('jpeg', 2, 'unauth', '0x1.656c000000000p+6'),
    ('jpeg', 2, 'auth', '0x1.93b6000000000p+5'),
    ('jpeg', 5, 'unauth', '0x1.1797000000000p+6'),
    ('jpeg', 5, 'auth', '0x1.9096000000000p+5'),
    ('jpeg', 10, 'unauth', '0x1.eb04000000000p+5'),
    ('jpeg', 10, 'auth', '0x1.93b6000000000p+5'),
    ('jpeg', 20, 'unauth', '0x1.bb8e000000000p+5'),
    ('jpeg', 20, 'auth', '0x1.9320000000000p+5'),
    ('noise', 1, 'unauth', '0x1.00a4000000000p+6'),
    ('noise', 1, 'auth', '0x1.94e2000000000p+5'),
    ('noise', 2, 'unauth', '0x1.b2c4000000000p+5'),
    ('noise', 2, 'auth', '0x1.976c000000000p+5'),
    ('noise', 3, 'unauth', '0x1.9514000000000p+5'),
    ('noise', 3, 'auth', '0x1.8aba000000000p+5'),
]


def _sha16(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("seed, mode, mix, repetition", list(GOLDEN_EMBED_EXTRACT))
def test_golden_embed_extract(seed, mode, mix, repetition):
    key = EmbeddingKey(KEY1 ^ seed, KEY2, mode=mode, mix=mix, repetition=repetition)
    marked = embed(synthetic_carrier(seed), synthetic_watermark(seed), key)
    images = (marked, jpeg_attack(marked, 5), crop_attack(marked, 100))
    got = (_sha16(marked),) + tuple(_sha16(extract(img, key)) for img in images)
    assert got == GOLDEN_EMBED_EXTRACT[(seed, mode, mix, repetition)]


def test_golden_sweep():
    rows = robustness_sweep(synthetic_carrier(3), synthetic_watermark(0), KEY1, KEY2,
                            BENCH_GRID, noise_seed=0x5EED)
    assert [(k, p, m, float(s).hex()) for k, p, m, s in rows] == GOLDEN_SWEEP


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_jpeg_inverse_independent_of_blas_kernel(core):
    """jpeg_inverse's matrix products run on whichever OpenBLAS kernel the
    host picks; its output on the tie-prone cases and the golden sweep rows
    are the same under two other kernels, selected in the child only."""
    run = kernel_run(core)
    assert run.returncode == 0, run.stderr
    _, ties, rows = json.loads(run.stdout)
    assert ties == tie_prone_digest()
    assert [tuple(r) for r in rows] == GOLDEN_SWEEP


def test_sweep_jpeg_fixup_stays_small():
    """On marked carriers, the sweep's JPEG cells hand jpeg_inverse's
    written-order re-sum a few pixels per call at most (none or 1-2 with
    the tolerance as it is), so a tolerance wide enough to send them down
    that slow path fails here."""
    grid = [cell for cell in BENCH_GRID if cell[0] == "jpeg"]
    with mock.patch.object(imaging, "_quantize", wraps=imaging._quantize) as quantize, \
            mock.patch.object(imaging, "_jpeg_pixels", wraps=imaging._jpeg_pixels) as pixels:
        for seed in range(3):
            robustness_sweep(synthetic_carrier(seed), synthetic_watermark(seed), KEY1, KEY2,
                             grid, noise_seed=0x5EED)
    assert quantize.call_count == 3 * 2 * len(grid)  # one per inverse: each seed, mode, level
    handed = [len(call.args[2]) for call in pixels.call_args_list]
    assert max(handed, default=0) <= 16, handed
