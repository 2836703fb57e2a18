"""The attack halves that `robustness_sweep` shares across its cells, the
rotate round trip against an independent two-gather reference, and the
Netpbm header's digit rule."""

import re

import numpy as np
import pytest

from cimark.imaging import (
    ImageFormatError,
    add_offsets,
    gaussian_noise_attack,
    jpeg_attack,
    jpeg_forward,
    jpeg_inverse,
    load_pbm,
    load_pgm,
    noise_offsets,
    remap,
    rotate_attack,
    rotation_map,
)
from rotate_oracle import rotate_round_trip

ANGLES = (0.5, 0.7, 2, 25, 45.3, 89.9)


def _image(h, w, seed=0):
    # no zero pixels, so a sample read from outside the frame cannot
    # coincide with a real one
    return np.random.default_rng(seed).integers(1, 256, size=(h, w), dtype=np.uint8)


class TestRotateOracle:
    @pytest.mark.parametrize("h, w", [(64, 64), (48, 80), (80, 48), (37, 53),
                                      (256, 256), (1, 9), (9, 1)],
                             ids=["square", "wide", "tall", "odd", "sweep", "row", "column"])
    @pytest.mark.parametrize("theta", ANGLES)
    def test_equals_two_gathers(self, h, w, theta):
        img = _image(h, w, seed=h * w)
        assert np.array_equal(rotate_attack(img, theta), rotate_round_trip(img, theta))

    @pytest.mark.parametrize("shape", [(256, 256), (37, 53), (1, 9), (9, 1)])
    def test_map_is_intp_within_the_zero_pixel(self, shape):
        rmap = rotation_map(shape, 25)
        assert rmap.dtype == np.intp and rmap.shape == shape
        h, w = shape
        assert 0 <= rmap.min() and rmap.max() <= h * w

    def test_map_serves_every_image_of_its_shape(self):
        rmap = rotation_map((37, 53), 25)
        for seed in range(3):
            img = _image(37, 53, seed)
            assert np.array_equal(remap(img, rmap), rotate_round_trip(img, 25))

    def test_map_shape_checked(self):
        with pytest.raises(ValueError, match="built for"):
            remap(_image(37, 53), rotation_map((53, 37), 25))


class TestSharedHalves:
    def test_jpeg_forward_once_serves_every_level(self):
        img = _image(30, 21)
        pair = jpeg_forward(img)
        kept = [a.copy() for a in pair]
        for level in (0.5, 2, 5, 20, 100):
            assert np.array_equal(jpeg_inverse(pair, level, img.shape),
                                  jpeg_attack(img, level))
        assert all(np.array_equal(a, b) for a, b in zip(pair, kept))

    def test_noise_offsets_once_serve_every_image(self):
        offsets = noise_offsets((30, 21), 2.0, seed=7)
        kept = offsets.copy()
        for seed in range(3):
            img = _image(30, 21, seed)
            assert np.array_equal(add_offsets(img, offsets),
                                  gaussian_noise_attack(img, 2.0, seed=7))
        assert np.array_equal(offsets, kept)

    def test_offsets_shape_checked(self):
        with pytest.raises(ValueError, match="built for"):
            add_offsets(_image(30, 21), noise_offsets((1, 21), 2.0, seed=7))

    @pytest.mark.parametrize("shape", [(32, 32), (16, 40), (8, 16), (17, 16)])
    def test_coefficient_shape_checked(self, shape):
        # 16x16 coefficients used to invert quietly to a 16x16 image for a
        # larger shape; jpeg_inverse refuses them before it quantizes
        pair = jpeg_forward(_image(16, 16))
        names = re.escape(str(pair[0].shape)) + ".*built for " + re.escape(str(shape))
        with pytest.raises(ValueError, match=names):
            jpeg_inverse(pair, 5, shape)

    @pytest.mark.parametrize("make", [
        lambda: jpeg_inverse(jpeg_forward(_image(8, 8)), float("nan"), (8, 8)),
        lambda: rotation_map((8, 8), 90),
        lambda: noise_offsets((8, 8), float("inf"), seed=1),
    ], ids=["jpeg", "rotate", "noise"])
    def test_parameter_checked_in_the_shared_half(self, make):
        with pytest.raises(ValueError):
            make()


class TestNetpbmDigits:
    @pytest.mark.parametrize("token", [b"+2", b"1_0", "١".encode(), b"\xb2"],
                             ids=["plus", "underscore", "arabic-indic", "superscript"])
    @pytest.mark.parametrize("loader, magic, tail", [
        (load_pgm, b"P5", b" 255\n"),
        (load_pbm, b"P4", b"\n"),
    ], ids=["pgm", "pbm"])
    def test_only_ascii_digits(self, tmp_path, loader, magic, tail, token):
        path = tmp_path / "t.img"
        path.write_bytes(magic + b"\n" + token + b" 4" + tail + b"\x00" * 64)
        with pytest.raises(ImageFormatError, match="offset 3: non-numeric header token"):
            loader(path)

    def test_plain_digits_still_load(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n0002 01\n255\n\x05\x06")
        assert np.array_equal(load_pgm(path), [[5, 6]])
