"""The attack halves and `attack_cells`, which shares them across a
series of parameters, the rotate round trip against an independent
two-gather reference, and the Netpbm header's digit rule."""

import re
import weakref
from unittest import mock

import numpy as np
import pytest

from cimark import imaging
from cimark.imaging import (
    ImageFormatError,
    add_offsets,
    attack_cells,
    crop_attack,
    gaussian_noise_attack,
    jpeg_attack,
    jpeg_forward,
    jpeg_inverse,
    load_pbm,
    load_pgm,
    remap,
    rotate_attack,
    rotation_map,
    scaled_noise,
    standard_noise,
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
        offsets = scaled_noise(standard_noise((30, 21), seed=7), 2.0)
        kept = offsets.copy()
        for seed in range(3):
            img = _image(30, 21, seed)
            assert np.array_equal(add_offsets(img, offsets),
                                  gaussian_noise_attack(img, 2.0, seed=7))
        assert np.array_equal(offsets, kept)

    def test_offsets_shape_checked(self):
        with pytest.raises(ValueError, match="built for"):
            add_offsets(_image(30, 21), scaled_noise(standard_noise((1, 21), seed=7), 2.0))

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
        lambda: next(attack_cells([_image(8, 8)], "noise", [float("inf")], 1)),
    ], ids=["jpeg", "rotate", "noise"])
    def test_parameter_checked_in_the_shared_half(self, make):
        with pytest.raises(ValueError):
            make()


# Repeated and unsorted parameters of each kind, and the single attack
SERIES = {
    "crop": ([20, 0, 37, 20, 7.9], crop_attack),
    "rotate": ([25, 2, 89.9, 25, 0.5], rotate_attack),
    "jpeg": ([20, 0.5, 5, 20, 100], jpeg_attack),
    "noise": ([3, 0.5, 10, 3, 1], lambda img, p: gaussian_noise_attack(img, p, 11)),
}

# Each kind composed from its halves afresh for one image and parameter,
# sharing nothing
FRESH = {
    "crop": crop_attack,
    "rotate": lambda img, p: remap(img, rotation_map(img.shape, p)),
    "jpeg": lambda img, p: jpeg_inverse(jpeg_forward(img), p, img.shape),
    "noise": lambda img, p: add_offsets(img, scaled_noise(standard_noise(img.shape, 11), p)),
}

HALVES = ("crop_attack", "jpeg_forward", "jpeg_inverse", "rotation_map", "remap",
          "standard_noise", "scaled_noise", "add_offsets")


def _spy(monkeypatch):
    """Wrap every half on cimark.imaging, where attack_cells looks them up."""
    spies = {name: mock.Mock(wraps=getattr(imaging, name)) for name in HALVES}
    for name, spy in spies.items():
        monkeypatch.setattr(imaging, name, spy)
    return spies


class TestAttackCells:
    @pytest.mark.parametrize("kind", list(SERIES))
    def test_cells_equal_single_attacks(self, kind):
        """Every cell equals the single attack, and the halves composed
        afresh, on each of two images."""
        images = [_image(37, 53, seed) for seed in (1, 2)]
        params, single = SERIES[kind]
        cells = list(attack_cells(images, kind, params, noise_seed=11))
        assert len(cells) == len(params)
        for cell, p in zip(cells, params):
            assert len(cell) == len(images)
            for got, img in zip(cell, images):
                assert np.array_equal(got, single(img, p)), (kind, p)
                assert np.array_equal(got, FRESH[kind](img, p)), (kind, p)

    def test_shared_work_done_once(self, monkeypatch):
        """One forward DCT per image, one standard normal draw, and one
        rotation map per angle, repeated angles included."""
        images = [_image(37, 53, seed) for seed in (1, 2)]
        spies = _spy(monkeypatch)
        counts = {}
        for kind, (params, _) in SERIES.items():
            list(attack_cells(images, kind, params, noise_seed=11))
            counts[kind] = {name: spy.call_count for name, spy in spies.items()}
            for spy in spies.values():
                spy.reset_mock()
        assert counts["jpeg"]["jpeg_forward"] == 2 and counts["jpeg"]["jpeg_inverse"] == 10
        assert counts["rotate"]["rotation_map"] == 5 and counts["rotate"]["remap"] == 10
        assert counts["noise"]["standard_noise"] == 1 and counts["noise"]["scaled_noise"] == 5
        assert counts["noise"]["add_offsets"] == 10 and counts["crop"]["crop_attack"] == 10

    def test_cells_built_one_at_a_time(self, monkeypatch):
        images = [_image(37, 53, seed) for seed in (1, 2)]
        spies = _spy(monkeypatch)
        cells = attack_cells(images, "jpeg", [5, 20, 50])
        assert spies["jpeg_forward"].call_count == 0
        next(cells)
        assert (spies["jpeg_forward"].call_count, spies["jpeg_inverse"].call_count) == (2, 2)
        next(cells)
        assert spies["jpeg_inverse"].call_count == 4

    @pytest.mark.parametrize("kind", list(SERIES))
    def test_no_params_no_work(self, monkeypatch, kind):
        spies = _spy(monkeypatch)
        assert list(attack_cells([_image(37, 53)], kind, [], noise_seed=11)) == []
        assert all(spy.call_count == 0 for spy in spies.values())

    @pytest.mark.parametrize("kind, bad", [
        ("crop", 54), ("rotate", 90), ("jpeg", 0), ("noise", float("nan")),
        ("noise_seed", None),
    ], ids=["crop", "rotate", "jpeg", "noise", "noise_seed"])
    def test_bad_last_parameter_raises_before_any_half(self, monkeypatch, kind, bad):
        """A bad last parameter, or a missing seed, is refused as the single
        attack refuses it, before any half runs."""
        img = _image(37, 53)
        if kind == "noise_seed":
            kind, params, seed = "noise", [2, 1], bad
            with pytest.raises(ValueError) as single:
                gaussian_noise_attack(img, 1, seed)
        else:
            params, seed = SERIES[kind][0][:2] + [bad], 11
            with pytest.raises(ValueError) as single:
                SERIES[kind][1](img, bad)
        spies = _spy(monkeypatch)
        with pytest.raises(ValueError) as cells:
            next(attack_cells([img, img], kind, params, noise_seed=seed))
        assert str(cells.value) == str(single.value)
        assert all(spy.call_count == 0 for spy in spies.values())

    def test_unknown_kind_and_mixed_shapes_refused(self):
        with pytest.raises(ValueError, match="unknown attack 'blur'"):
            next(attack_cells([_image(8, 8)], "blur", [1]))
        with pytest.raises(ValueError, match="built for"):
            next(attack_cells([_image(8, 8), _image(8, 9)], "crop", [1]))
        with pytest.raises(ValueError, match="images is empty"):
            next(attack_cells([], "crop", [1]))

    @pytest.mark.parametrize("kind, half", [
        ("rotate", "rotation_map"), ("noise", "scaled_noise"),
        ("noise", "standard_noise"), ("jpeg", "jpeg_forward"),
    ])
    def test_cell_work_dropped_before_yield(self, monkeypatch, kind, half):
        """A cell's rotation map or offsets are freed before the cell is
        yielded, and the shared draw and DCT pairs by the last cell."""
        made = []
        real = getattr(imaging, half)

        def keep(*a, **kw):
            out = real(*a, **kw)
            made.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
            return out

        monkeypatch.setattr(imaging, half, keep)
        params = SERIES[kind][0][:3]
        cells = attack_cells([_image(37, 53, seed) for seed in (1, 2)], kind, params, 11)
        for i in range(len(params)):
            next(cells)
            dead = [ref() is None for ref in made]
            if half in ("standard_noise", "jpeg_forward") and i < len(params) - 1:
                assert not any(dead)  # shared until the last cell
            else:
                assert dead and all(dead)


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
