import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimark import imaging
from cimark.imaging import (
    _DCT,
    ImageFormatError,
    _coefficients,
    _dct_pair,
    _jpeg_pixels,
    _parse_header,
    _quantize,
    crop_attack,
    gaussian_noise_attack,
    jpeg_attack,
    jpeg_forward,
    jpeg_inverse,
    load_pbm,
    load_pgm,
    noise_offsets,
    psnr,
    rotate_attack,
    save_pbm,
    save_pgm,
    scaled_noise,
    standard_noise,
    synthetic_carrier,
    synthetic_watermark,
)
from jpeg_oracle import (FORWARD_LEVELS, SUBSET_LEVELS, forward_tie_cases,
                         forward_tie_digest, forward_tie_image, inverse_sums, kernel_run,
                         reference_forward, reference_inverse, reference_quantize,
                         span_blocks, steps_at, tie_prone_cases, tie_prone_pair)


def byte_loop_header(data: bytes, magic: bytes, fields: int):
    """Reference Netpbm header parser written as byte loops: skip whitespace,
    skip a # comment up to its newline, take the run of non-whitespace."""
    if data[:2] != magic:
        raise ImageFormatError(f"offset 0: expected {magic.decode()} magic, "
                               f"got {data[:2]!r}")
    pos = 2
    values = []
    while len(values) < fields:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ImageFormatError(f"offset {start}: truncated header")
        if not token.isdigit():
            kind = ("negative header value" if token[:1] == b"-" and token[1:].isdigit()
                    else "non-numeric header token")
            raise ImageFormatError(f"offset {start}: {kind} {token!r}")
        values.append(int(token))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError(f"offset {pos}: missing whitespace after header")
    return values, pos + 1


# Header bytes: every ASCII whitespace byte, comment starts, digits, signs,
# "_", and the two bytes of the UTF-8 Arabic-Indic zero ("\xa0" alone is a
# Latin-1 space).
_HEADER_PIECES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"7",
                  b"255", b"-", b"+", b"_", b"\xd9", b"\xa0", b"x"]


class TestNetpbm:
    @settings(max_examples=400, deadline=None)
    @given(body=st.lists(st.sampled_from(_HEADER_PIECES), max_size=24).map(b"".join),
           head=st.sampled_from([(b"P5", 3), (b"P4", 2)]))
    def test_header_matches_byte_loop_parser(self, body, head):
        """Values and payload offset, or the error message, are those of the
        byte-loop parser."""
        magic, fields = head

        def outcome(parse):
            try:
                return parse(magic + body, magic, fields)
            except ImageFormatError as exc:
                return str(exc)

        assert outcome(_parse_header) == outcome(byte_loop_header)

    def test_pgm_2x2_roundtrip(self, tmp_path):
        img = np.array([[0, 128], [255, 7]], dtype=np.uint8)
        path = tmp_path / "t.pgm"
        save_pgm(img, path)
        assert np.array_equal(load_pgm(path), img)

    def test_pgm_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n256 256\n255\n" + b"\x00" * 100)
        with pytest.raises(ImageFormatError, match="truncated"):
            load_pgm(path)

    def test_pgm_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(ImageFormatError, match="offset 0"):
            load_pgm(path)

    def test_pgm_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ImageFormatError, match="maxval"):
            load_pgm(path)

    @pytest.mark.parametrize("loader, data", [
        (load_pgm, b"P5\n-1 4\n255\n" + b"\x00" * 8),
        (load_pbm, b"P4\n-8 2\n" + b"\x00" * 8),
    ], ids=["pgm", "pbm"])
    def test_negative_dimension_rejected(self, tmp_path, loader, data):
        path = tmp_path / "neg.img"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match="offset 3: negative"):
            loader(path)

    def test_pgm_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x06")
        assert np.array_equal(load_pgm(path), [[5, 6]])

    def test_pbm_roundtrip_odd_width(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 2, size=(5, 13), dtype=np.uint8)
        path = tmp_path / "t.pbm"
        save_pbm(img, path)
        assert np.array_equal(load_pbm(path), img)

    def test_pbm_truncated(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P4\n64 64\n" + b"\x00" * 10)
        with pytest.raises(ImageFormatError, match="truncated"):
            load_pbm(path)

    def test_roundtrip_property_100_random(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(100):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            gray = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            bits = rng.integers(0, 2, size=(h, w), dtype=np.uint8)
            gp = tmp_path / f"g{i}.pgm"
            bp = tmp_path / f"b{i}.pbm"
            save_pgm(gray, gp)
            save_pbm(bits, bp)
            assert np.array_equal(load_pgm(gp), gray)
            assert np.array_equal(load_pbm(bp), bits)


class TestCrop:
    def test_zero_side_is_identity(self):
        img = synthetic_carrier(1)
        assert np.array_equal(crop_attack(img, 0), img)

    def test_full_side_blacks_out(self):
        img = synthetic_carrier(1)
        assert not crop_attack(img, 256).any()

    def test_locality(self):
        img = synthetic_carrier(1)
        out = crop_attack(img, 10)
        assert out.shape == img.shape
        top = left = (256 - 10) // 2
        assert not out[top:top + 10, left:left + 10].any()
        mask = np.ones_like(img, dtype=bool)
        mask[top:top + 10, left:left + 10] = False
        assert np.array_equal(out[mask], img[mask])

    def test_idempotent(self):
        img = synthetic_carrier(2)
        once = crop_attack(img, 50)
        assert np.array_equal(crop_attack(once, 50), once)

    def test_oversize_rejected(self):
        # a string or None used to fail inside math.isfinite with a TypeError
        for side in (257, "5", None):
            with pytest.raises(ValueError, match="crop side"):
                crop_attack(synthetic_carrier(1), side)


class TestRotate:
    def test_constant_interior_preserved(self):
        img = np.full((64, 64), 137, dtype=np.uint8)
        out = rotate_attack(img, 7)
        assert np.array_equal(out[16:-16, 16:-16],
                              np.full((32, 32), 137, dtype=np.uint8))

    def test_bad_angle_rejected(self):
        img = synthetic_carrier(1)
        for theta in (0, -3, 90, 120, "5", None):
            with pytest.raises(ValueError, match="theta"):
                rotate_attack(img, theta)

    def test_vanishing_angle_is_identity(self):
        img = synthetic_carrier(2)
        assert np.array_equal(rotate_attack(img, 1e-3), img)

    def test_small_angle_band(self):
        img = synthetic_carrier(0)
        out = rotate_attack(img, 2)
        diff = np.abs(out.astype(int) - img.astype(int))
        assert diff.mean() > 0
        assert psnr(img, out) >= 25.0

    def test_dimensions_and_range_preserved(self):
        img = synthetic_carrier(3)
        out = rotate_attack(img, 25)
        assert out.shape == img.shape
        assert out.dtype == np.uint8


class TestJpeg:
    def test_constant_stays_constant(self):
        img = np.full((64, 64), 201, dtype=np.uint8)
        out = jpeg_attack(img, 10)
        assert np.unique(out).size == 1

    def test_unit_steps_near_identity(self):
        # level small enough that all quantization steps floor to 1:
        # only coefficient rounding remains on a smooth block
        ramp = (100 + np.add.outer(np.arange(16), np.arange(16)) / 4.0).astype(np.uint8)
        out = jpeg_attack(ramp, 0.01)
        assert np.abs(out.astype(int) - ramp.astype(int)).max() <= 1

    def test_level10_degrades_within_band(self):
        img = synthetic_carrier(0)
        out = jpeg_attack(img, 10)
        diff = np.abs(out.astype(int) - img.astype(int))
        assert diff.mean() > 0
        assert 45.0 <= psnr(img, out) <= 60.0

    def test_higher_level_is_coarser(self):
        img = synthetic_carrier(0)
        values = [psnr(img, jpeg_attack(img, lv)) for lv in (1, 5, 20, 100, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_requantization_stable(self):
        img = synthetic_carrier(5)
        once = jpeg_attack(img, 10)
        twice = jpeg_attack(once, 10)
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 2

    def test_pads_non_multiple_of_8(self):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, size=(30, 21), dtype=np.uint8)
        out = jpeg_attack(img, 2)
        assert out.shape == img.shape

    def test_bad_level_rejected(self):
        for level in (0, "5", None):
            with pytest.raises(ValueError, match="level"):
                jpeg_attack(synthetic_carrier(1), level)


def _gemm_only(pair, level, shape):
    """jpeg_inverse's two matrix products rounded as they come, without the
    near-tie recomputation: what the inverse would return without it."""
    q = _quantize(pair, level)
    bh, bw = q.shape[:2]
    t = (q.reshape(-1, 8) @ _DCT).reshape(bh, bw, 8, 8)
    t = (t.transpose(0, 1, 3, 2).reshape(-1, 8) @ _DCT).reshape(bh, bw, 8, 8)
    v = t.transpose(0, 3, 1, 2).reshape(8 * bh, 8 * bw) + 128.5
    h, w = shape
    return np.clip(np.floor(v), 0, 255).astype(np.uint8)[:h, :w], v[:h, :w]


def _products_only(pair, level):
    """_quantize without the near-tie recomputation: jpeg_forward's matrix
    products rounded as they come."""
    steps = steps_at(level)
    return np.round(pair[0] / steps) * steps


def _cancelling_pair(rng, bh, bw, big=8 * 10**9):
    """The pair of blocks whose coefficients are integers of about 8e9 at
    (0|4, 0|4) only. With s the sign of D[4, .], pixel (i, l) of a block
    sums to big (1 - s[l]) (1 + s[i]) / 8 plus a small multiple of 1/8, so
    in three pixels of four the terms of about 1e9 cancel, about one such
    pixel in 8 is on a tie at .5, and the float rounding of the sum there
    is about 1e-7."""
    small = rng.integers(-400, 401, size=(4, bh, bw))
    blocks = span_blocks(big + small[0], big + small[1], -big + small[2], -big + small[3])
    return _dct_pair(blocks.transpose(0, 2, 1, 3).reshape(8 * bh, 8 * bw))


class TestJpegPixels:
    def test_equals_full_inverse(self):
        """jpeg_inverse (every pixel) and _jpeg_pixels (the sampled pixels)
        equal the einsum reference bit for bit on 570 (shape, level) cases
        that include ties at .5."""
        cases = ties = 0
        for shape, pair, pixels in tie_prone_cases():
            for level in SUBSET_LEVELS:
                want = reference_inverse(pair, level, shape)
                full = jpeg_inverse(pair, level, shape)
                got = _jpeg_pixels(_quantize(pair, level), shape, pixels)
                assert full.dtype == got.dtype == np.uint8
                assert np.array_equal(full, want), (shape, level)
                assert np.array_equal(got, want.reshape(-1)[pixels]), (shape, level)
                cases += 1
            # pixels whose sum lies on a tie at .5, where the sum order decides
            ties += np.count_nonzero(np.abs(inverse_sums(pair, 0.5) % 1.0 - 0.5) < 1e-9)
        assert cases >= 500
        assert ties >= 5000

    def test_fixture_reaches_the_fixup(self):
        """The matrix products alone, rounded without the near-tie
        recomputation, differ from the reference on some tie-prone cases, so
        test_equals_full_inverse would fail without it."""
        differing = 0
        for shape, pair, _ in tie_prone_cases():
            for level in SUBSET_LEVELS:
                fast, _ = _gemm_only(pair, level, shape)
                differing += not np.array_equal(fast, reference_inverse(pair, level, shape))
        assert differing >= 1

    def test_large_cancelling_coefficients(self):
        """Coefficients of about 8e9 whose terms cancel to ties: there the
        products' rounding exceeds 2^-30, so a fixed tolerance of the size
        uint8 images need (2^-36) would miss it; the tolerance scaled by
        the largest quantized coefficient catches it."""
        rng = np.random.default_rng(27)
        for bh, bw in ((1, 1), (2, 3), (4, 4)):
            pair = _cancelling_pair(rng, bh, bw)
            shape = (8 * bh - 3, 8 * bw - 1)
            want = reference_inverse(pair, 0.5, shape)
            assert np.array_equal(jpeg_inverse(pair, 0.5, shape), want)
            assert np.array_equal(_jpeg_pixels(_quantize(pair, 0.5), shape, np.arange(want.size)),
                                  want.reshape(-1))
        fast, v = _gemm_only(pair, 0.5, shape)
        wrong = fast != want
        assert wrong.any()
        assert (np.abs(v - np.rint(v))[wrong] > 2.0**-30).all()

    def test_all_pixels_in_bounded_memory(self):
        """All 65,536 pixels of a 256x256 image of large cancelling
        coefficients are summed again within a few MiB: the terms are
        gathered per block of outputs, not as one (64, n) float64 array
        (32 MiB), and so are the forward coefficients of its pixels."""
        pair = _cancelling_pair(np.random.default_rng(28), 32, 32)
        q = _quantize(pair, 0.5)
        everything = np.arange(256 * 256)
        tracemalloc.start()
        try:
            pixels = _jpeg_pixels(q, (256, 256), everything)
            coef = _coefficients(pair[1], everything)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert np.array_equal(pixels, reference_inverse(pair, 0.5, (256, 256)).reshape(-1))
        assert np.array_equal(coef, reference_forward(pair[1]).reshape(-1))

    def test_one_quantize_per_inverse(self):
        """The pixel fix-up sums from the coefficients jpeg_inverse already
        quantized: one _quantize call per inverse, also where the fix-up
        runs."""
        pair = tie_prone_pair(np.random.default_rng(32), 256, 256)
        with mock.patch.object(imaging, "_quantize", wraps=_quantize) as quantize, \
                mock.patch.object(imaging, "_jpeg_pixels", wraps=_jpeg_pixels) as pixels:
            jpeg_inverse(pair, 0.5, (256, 256))
        assert pixels.call_count == 1
        assert quantize.call_count == 1

    def test_bad_level_rejected(self):
        pair = jpeg_forward(synthetic_carrier(1, 16))
        with pytest.raises(ValueError, match="level"):
            jpeg_inverse(pair, 0, (16, 16))

    def test_bare_coefficients_refused(self):
        coef, _ = jpeg_forward(synthetic_carrier(1, 16))
        with pytest.raises(ValueError, match="pair"):
            jpeg_inverse(coef, 5, (16, 16))


def _mixed_pair(rng, h, w, big):
    """jpeg_forward's pair for forward_tie_image(rng, h, w), with the
    blocks at odd (block row + block column) replaced by span_blocks of
    integers in [-300, 300], tie-prone in the inverse, and block (0, 0) by
    a block of _cancelling_pair's coefficients of about `big`. That block
    holds the largest value of padded and of the quantized coefficients,
    so it sets the one tolerance of every block in both halves."""
    padded = jpeg_forward(forward_tie_image(rng, h, w))[1]
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    view = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    odd = np.add.outer(np.arange(bh), np.arange(bw)) % 2 == 1
    view[odd] = span_blocks(*rng.integers(-300, 301, size=(4, np.count_nonzero(odd))))
    small = rng.integers(-400, 401, size=4)
    view[0, 0] = span_blocks(big + small[0], big + small[1], -big + small[2], -big + small[3])
    return _dct_pair(padded)


class TestSharedTolerance:
    @pytest.mark.parametrize("big", [8 * 10**5, 8 * 10**9])
    @pytest.mark.parametrize("shape", [(40, 48), (120, 8)], ids=str)
    def test_mixed_magnitudes_equal_einsum(self, shape, big):
        """One block of large cancelling coefficients next to small
        tie-prone blocks: both halves equal the einsum references at every
        forward tie level. At about 8e5 the tolerance stays below .5, so
        only near-ties are summed again; at about 8e9 it exceeds .5 and
        every value is."""
        pair = _mixed_pair(np.random.default_rng(shape[1] + big % 7), *shape, big)
        forward_ties = inverse_ties = 0
        for level in FORWARD_LEVELS:
            assert np.array_equal(_quantize(pair, level), reference_quantize(pair, level)), level
            assert np.array_equal(jpeg_inverse(pair, level, shape),
                                  reference_inverse(pair, level, shape)), level
            exact = reference_forward(pair[1]) / steps_at(level)
            forward_ties += np.count_nonzero(np.abs(exact % 1.0 - 0.5) < 1e-9)
            inverse_ties += np.count_nonzero(np.abs(inverse_sums(pair, level) % 1.0 - 0.5) < 1e-9)
        assert forward_ties >= 10 and inverse_ties >= 10


# Shapes from 1x1 to 257x9; 1 to 33 block columns, one block column in five.
FORWARD_SHAPES = [(1, 1), (8, 8), (9, 5), (40, 3), (16, 8), (5, 9), (8, 16), (17, 40),
                  (257, 9), (9, 257), (256, 256)]


class TestJpegForward:
    @pytest.mark.parametrize("shape", FORWARD_SHAPES, ids=str)
    def test_written_order_equals_einsum(self, shape):
        """_coefficients, the forward DCT's definition, equals the einsum
        reference on every coefficient, in the flat order with one block
        column and the nested one with more."""
        pair = jpeg_forward(np.random.default_rng(shape[0] * shape[1])
                            .integers(0, 256, size=shape, dtype=np.uint8))
        coef, padded = pair
        assert np.array_equal(_coefficients(padded, np.arange(coef.size)),
                              reference_forward(padded).reshape(-1))

    def test_quantize_equals_reference(self):
        """Forward plus quantize, and the whole attack, equal the einsum
        reference bit for bit on 570 (shape, level) cases whose
        coefficients sit on .5 after the division, one-block-column shapes
        among them."""
        cases = ties = 0
        for img, pair in forward_tie_cases():
            for level in FORWARD_LEVELS:
                want = reference_quantize(pair, level)
                assert np.array_equal(_quantize(pair, level), want), (img.shape, level)
                assert np.array_equal(jpeg_attack(img, level),
                                      reference_inverse(pair, level, img.shape)), (img.shape, level)
                exact = reference_forward(pair[1]) / steps_at(level)
                ties += np.count_nonzero(np.abs(exact % 1.0 - 0.5) < 1e-9)
                cases += 1
        assert cases >= 500
        assert ties >= 5000

    def test_fixture_reaches_the_fixup(self):
        """The forward products alone, rounded without the near-tie
        recomputation, differ from the reference on some cases, with one
        block column and with more, so test_quantize_equals_reference would
        fail without it."""
        differing = {True: 0, False: 0}
        for img, pair in forward_tie_cases():
            for level in FORWARD_LEVELS:
                fast = _products_only(pair, level)
                differing[img.shape[1] <= 8] += not np.array_equal(
                    fast, reference_quantize(pair, level))
        assert differing[True] >= 1 and differing[False] >= 1

    def test_large_cancelling_blocks(self):
        """Blocks of integers up to 1e9 whose DC coefficient is on .5: the
        products' rounding there exceeds 2^-36, the tolerance uint8 images
        need, so only a tolerance scaled by the block values catches it."""
        rng = np.random.default_rng(27)
        wrong = []
        for bh, bw in ((1, 1), (2, 3), (4, 4), (3, 1), (8, 8)):
            b = rng.integers(-10**9, 10**9, size=(bh * bw, 64))
            b[:, -1] -= (b.sum(axis=1) - 4) % 8  # block sums of 8n + 4: DC on n + .5
            padded = b.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3).reshape(8 * bh, 8 * bw)
            pair = _dct_pair(padded.astype(np.float64))
            want = reference_quantize(pair, 0.5)
            assert np.array_equal(_quantize(pair, 0.5), want)
            q = pair[0]
            wrong.extend(np.abs(q - np.floor(q) - 0.5)[_products_only(pair, 0.5) != want])
        assert max(wrong) > 2.0**-36


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_jpeg_forward_independent_of_blas_kernel(core):
    """jpeg_forward's matrix products run on whichever OpenBLAS kernel the
    host picks; the quantized coefficients of the forward tie cases are the
    same under two other kernels, selected in the child only."""
    run = kernel_run(core)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)[0] == forward_tie_digest()


class TestNoise:
    def test_deterministic_per_seed(self):
        img = synthetic_carrier(7)
        a = gaussian_noise_attack(img, 3.0, seed=11)
        b = gaussian_noise_attack(img, 3.0, seed=11)
        c = gaussian_noise_attack(img, 3.0, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_clamped(self):
        img = np.full((200, 200), 255, dtype=np.uint8)
        out = gaussian_noise_attack(img, 5.0, seed=1)
        assert out.max() <= 255
        img0 = np.zeros((200, 200), dtype=np.uint8)
        assert gaussian_noise_attack(img0, 5.0, seed=1).min() >= 0

    def test_sigma_one_moments(self):
        img = np.full((1000, 1000), 128, dtype=np.uint8)
        out = gaussian_noise_attack(img, 1.0, seed=2)
        delta = out.astype(np.float64) - 128.0
        assert abs(delta.mean()) < 0.01
        assert abs(delta.std() - 1.0) < 0.05

    def test_bad_sigma_rejected(self):
        for sigma in (0.0, "5", None):
            with pytest.raises(ValueError, match="sigma"):
                gaussian_noise_attack(synthetic_carrier(1), sigma, seed=1)

    def test_seed_none_rejected(self):
        """seed=None used to fall through to OS entropy: a different image on
        every call."""
        img = synthetic_carrier(1, 32)
        with pytest.raises(ValueError, match="explicit seed"):
            gaussian_noise_attack(img, 2.0, None)
        with pytest.raises(ValueError, match="explicit seed"):
            noise_offsets(img.shape, 2.0, None)

    @pytest.mark.parametrize("seed", [0, 0x5EED, 2**32 - 1])
    @pytest.mark.parametrize("sigma", [0.1, 1, 2, 3, 10])
    def test_offsets_equal_rounded_normal_draw(self, seed, sigma):
        """noise_offsets scales one standard normal draw; bit for bit that
        is numpy's normal(0, sigma) from the same generator, rounded half
        away from zero, because numpy computes loc + scale z. This pins the
        identity on the installed numpy."""
        n = np.random.default_rng(seed).normal(0.0, sigma, size=(61, 67))
        want = np.sign(n) * np.floor(np.abs(n) + 0.5)
        got = noise_offsets((61, 67), sigma, seed)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        z = standard_noise((61, 67), seed)
        assert np.array_equal(scaled_noise(z, sigma).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        """A negative seed used to fail inside numpy and a float with a
        TypeError; both are refused with a message naming the seed."""
        img = synthetic_carrier(1, 32)
        message = f"non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            gaussian_noise_attack(img, 2.0, seed)
        with pytest.raises(ValueError, match=re.escape(message)):
            noise_offsets(img.shape, 2.0, seed)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = synthetic_carrier(8)
        assert psnr(img, img) == math.inf

    def test_plus_one_everywhere(self):
        img = synthetic_carrier(8)
        img = np.clip(img, 0, 254)
        shifted = (img + 1).astype(np.uint8)
        assert psnr(img, shifted) == pytest.approx(20 * math.log10(255), abs=1e-9)

    def test_vs_independent_two_pass(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, size=(50, 70), dtype=np.uint8)
        b = rng.integers(0, 256, size=(50, 70), dtype=np.uint8)
        # second implementation: explicit two-pass accumulation
        total = 0.0
        for r in range(50):
            for c in range(70):
                d = float(a[r, c]) - float(b[r, c])
                total += d * d
        mse = total / (50 * 70)
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / mse), rel=1e-12)

    def test_empty_image_rejected(self):
        empty = np.zeros((4, 0), np.uint8)
        with pytest.raises(ValueError, match="empty"):
            psnr(empty, empty)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))


class TestSynthetic:
    def test_carrier_properties(self):
        img = synthetic_carrier(0)
        assert img.shape == (256, 256)
        assert img.dtype == np.uint8
        assert np.array_equal(synthetic_carrier(0), img)
        assert not np.array_equal(synthetic_carrier(1), img)

    def test_watermark_properties(self):
        wm = synthetic_watermark(0)
        assert wm.shape == (64, 64)
        assert set(np.unique(wm)) <= {0, 1}
        # both colors well represented
        assert 0.2 < wm.mean() < 0.8
