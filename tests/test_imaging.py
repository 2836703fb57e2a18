import math

import numpy as np
import pytest

from cimark.imaging import (
    ImageFormatError,
    crop_attack,
    gaussian_noise_attack,
    jpeg_attack,
    load_pbm,
    load_pgm,
    psnr,
    rotate_attack,
    save_pbm,
    save_pgm,
    synthetic_carrier,
    synthetic_watermark,
)


class TestNetpbm:
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
        with pytest.raises(ValueError):
            crop_attack(synthetic_carrier(1), 257)


class TestRotate:
    def test_constant_interior_preserved(self):
        img = np.full((64, 64), 137, dtype=np.uint8)
        out = rotate_attack(img, 7)
        assert np.array_equal(out[16:-16, 16:-16],
                              np.full((32, 32), 137, dtype=np.uint8))

    def test_bad_angle_rejected(self):
        img = synthetic_carrier(1)
        for theta in (0, -3, 90, 120):
            with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            jpeg_attack(synthetic_carrier(1), 0)


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
        with pytest.raises(ValueError):
            gaussian_noise_attack(synthetic_carrier(1), 0.0, seed=1)


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
