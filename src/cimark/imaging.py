"""Grayscale/binary image I/O (binary PGM/PBM) and the attack transforms
used in the robustness evaluation: center crop-out, double rotation,
block-DCT quantization, and additive Gaussian noise."""

from __future__ import annotations

import math
import numbers
import re

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


_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")  # whitespace and comments, then a token


def _parse_header(data: bytes, magic: bytes, fields: int):
    """Parse 'magic <int> ...' with whitespace and # comments; returns the
    field values, each a run of ASCII digits, and the payload offset."""
    if data[:2] != magic:
        raise ImageFormatError(f"offset 0: expected {magic.decode()} magic, "
                               f"got {data[:2]!r}")
    pos = 2
    values = []
    for _ in range(fields):
        start, pos = _FIELD.match(data, pos).span(1)
        token = data[start:pos]
        if not token:
            raise ImageFormatError(f"offset {start}: truncated header")
        if not token.isdigit():  # ASCII digits only: no sign, no "_"
            kind = ("negative header value" if token[:1] == b"-" and token[1:].isdigit()
                    else "non-numeric header token")
            raise ImageFormatError(f"offset {start}: {kind} {token!r}")
        values.append(int(token))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError(f"offset {pos}: missing whitespace after header")
    return values, pos + 1


def _payload(data: bytes, offset: int, need: int) -> bytes:
    """The `need` bytes of image data at `offset`; raises if the file ends first."""
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise ImageFormatError(f"offset {offset + len(payload)}: payload "
                               f"truncated ({len(payload)} of {need} bytes)")
    return payload


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    (width, height, maxval), offset = _parse_header(data, b"P5", 3)
    if maxval != 255:
        raise ImageFormatError(f"offset {offset}: maxval {maxval} unsupported "
                               "(want 255)")
    payload = _payload(data, offset, width * height)
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
    payload = _payload(data, offset, stride * height)
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


def _finite(x) -> bool:
    """Whether x is a finite real number; a string or None is not one."""
    return isinstance(x, numbers.Real) and math.isfinite(x)


def _crop_side(side, shape) -> int:
    """The side of a center crop of an image of `shape`, truncated to an
    integer; raises ValueError unless it lies in [0, min(h, w)]."""
    if not (_finite(side) and 0 <= int(side) <= min(shape)):
        raise ValueError(f"crop side {side!r} is not in [0, {min(shape)}]")
    return int(side)


def _check_angle(theta) -> None:
    if not (_finite(theta) and 0 < theta < 90):
        raise ValueError(f"theta must be in (0, 90) degrees, got {theta!r}")


def _check_level(level) -> None:
    if not (_finite(level) and level > 0):
        raise ValueError(f"level must be positive and finite, got {level!r}")


def _check_sigma(sigma) -> None:
    if not (_finite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")


def _check_noise_seed(seed) -> None:
    if seed is None:  # default_rng(None) would draw fresh OS entropy
        raise ValueError("the noise attack needs an explicit seed")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"the noise seed must be a non-negative integer, got {seed!r}")


def _check_shape(a: np.ndarray, shape) -> np.ndarray:
    if a.shape != tuple(shape):
        raise ValueError(f"image is {a.shape}, the attack was built for {tuple(shape)}")
    return a


def crop_attack(img, side: int) -> np.ndarray:
    """Zero out the side-by-side square at the image center; dimensions and
    all other pixels are untouched. A fractional side is truncated."""
    a = _check_gray(img)
    h, w = a.shape
    side = _crop_side(side, a.shape)
    out = a.copy()
    top = (h - side) // 2
    left = (w - side) // 2
    out[top:top + side, left:left + side] = 0
    return out


def _nearest_sources(h: int, w: int, theta_deg: float) -> np.ndarray:
    """One rotation by theta about the pixel-coordinate center (w/2, h/2)
    with nearest-neighbor sampling: the flat index of the source pixel each
    output pixel reads, or h * w where the source lies outside the frame.

    The products with dx = x - cx and dy = y - cy are taken on a row and a
    column vector and only their sums are broadcast to the frame; each
    element gets the same products and the same sum order,
    ((a + b) + c) + 0.5, as on full coordinate grids. A source coordinate
    p lies in [0, n) exactly when p viewed as unsigned is below n."""
    cy, cx = h / 2.0, w / 2.0
    th = math.radians(theta_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    dx = np.arange(w) - cx
    dy = (np.arange(h) - cy)[:, None]

    def nearest(a, b, c):
        s = a + b
        s += c
        s += 0.5
        return np.floor(s, out=s).astype(np.intp)

    # inverse map: source coordinates that land on this output pixel
    px = nearest(cos_t * dx, sin_t * dy, cx)
    py = nearest(-sin_t * dx, cos_t * dy, cy)
    outside = px.view(np.uintp) >= w
    outside |= py.view(np.uintp) >= h
    flat = py
    flat *= w
    flat += px
    flat[outside] = h * w
    return flat.reshape(-1)


def rotation_map(shape, theta: float) -> np.ndarray:
    """First half of rotate_attack, built from the image shape and the
    angle alone: the round trip as one gather. Entry (y, x) is the flat
    index of the pixel that output pixel reads, or h * w (a zero pixel past
    the end) where either rotation samples outside the frame.

    With r1 the sources of the +theta rotation and r2 those of the -theta
    one, the round trip reads r1[r2], r1 extended by h * w so that a
    source outside the first frame stays outside.
    """
    _check_angle(theta)
    h, w = shape
    r1 = _nearest_sources(h, w, theta)
    r2 = _nearest_sources(h, w, -theta)
    return np.append(r1, h * w)[r2].reshape(h, w)


def remap(img, rmap: np.ndarray) -> np.ndarray:
    """Second half of rotate_attack: gather `img` through a rotation_map."""
    a = _check_shape(_check_gray(img), rmap.shape)
    return np.append(a.reshape(-1), np.uint8(0))[rmap]


def rotate_attack(img, theta: float) -> np.ndarray:
    """Rotate by theta degrees then back by -theta (both resampled), the
    round trip used in the robustness evaluation.

    Resampling is nearest-neighbor: interpolation that averages neighboring
    pixels wipes the low bit planes wholesale, which flattens the watermark
    similarity the benchmark is meant to expose; nearest keeps the attack
    geometric.
    """
    a = _check_gray(img)
    return remap(a, rotation_map(a.shape, theta))


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)
    c = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0) / 2.0
    c[0, :] /= math.sqrt(2.0)
    return c


_DCT = _dct_matrix()

# Outputs per block of _written_sums: one j's (8, block) float64 products,
# 512 KiB, stay in L2 cache, which the (8, n) products of every value of a
# 256x256 image (4 MiB) do not, and the terms gathered for them stay within
# a block. Shorter blocks pay more ufunc calls.
_SUM_BLOCK = 8192

# Calibration of "compression level" to a quantization-table scale. The
# similarity column of the robustness benchmark pins this: levels 2..20 must
# degrade an embedded payload from ~83% down to ~53%, which happens in the
# regime of table scales ~0.016..0.16 (steps floored at 1). Larger scales
# collapse every level to coin-flip similarity.
_LEVEL_SCALE = 1.0 / 125.0


def jpeg_forward(img):
    """First half of jpeg_attack, independent of the level: the pair
    (coef, padded). padded is the image shifted by -128, its sides padded to
    multiples of 8 by edge replication (float64); coef is the DCT of each
    8x8 block B of it, as an array (block row, block column, 8, 8).

    coef is computed as two matrix products, D (B D^T), whose sum order BLAS
    leaves open. _quantize sums a coefficient again from padded, in the
    order of _coefficients, which defines the forward DCT, wherever the
    order can show; so every output of the pair is independent of the BLAS
    kernel.
    """
    a = _check_gray(img)
    h, w = a.shape
    padded = np.pad(a, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge").astype(np.float64)
    padded -= 128.0
    return _dct_pair(padded)


def _dct_pair(padded: np.ndarray):
    """jpeg_forward's (coef, padded) for a float64 image already shifted and
    padded to sides that are multiples of 8."""
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    t = (padded.reshape(-1, 8) @ _DCT.T).reshape(bh, 8, 8 * bw)  # over k: (a, j, (b, l))
    coef = (_DCT @ t).reshape(bh, 8, bw, 8)  # over j: (a, i, b, l)
    return coef.transpose(0, 2, 1, 3).copy(), padded


def _check_blocks(pair, shape) -> None:
    """Raise unless `pair` is jpeg_forward's (coef, padded) for an image of
    `shape`."""
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise ValueError("expected jpeg_forward's (coef, padded) pair")
    coef, padded = pair
    h, w = shape
    grid = (-(-h // 8), -(-w // 8), 8, 8)
    if np.shape(coef) != grid or np.shape(padded) != (8 * grid[0], 8 * grid[1]):
        raise ValueError(f"coefficients are {np.shape(coef)}, the inverse was built for "
                         f"{tuple(shape)}, whose blocks are {grid}")


def _written_sums(flat: np.ndarray, base: np.ndarray, stride: int, rows, cols,
                  nested: bool) -> np.ndarray:
    """For each output t of n = base.size, the sum over j and k of the 64
    terms (R[j, r[t]] x[j, k]) C[k, c[t]], with (R, r) = rows, (C, c) =
    cols, R and C (8, 8), and x the 8x8 block of `flat` at base[t] with row
    stride `stride`, x[j, k] = flat[base[t] + j stride + k]; in a written
    order. Nested: for each j from 0, an inner sum over k from 0 is added
    to the result. Flat: all 64 terms in j-major order from 0.

    These orders define both JPEG halves (_coefficients, _jpeg_pixels):
    each is numpy einsum's order for that half's subscripts, and the
    imaging tests pin both to the einsum. The matrix products are summed
    again in them wherever the order can show (_near_ties). Outputs run in
    blocks of up to _SUM_BLOCK; within one, each j gathers its (8, block)
    terms, so memory past the n sums is bounded by the block, and each
    product and each sum is one ufunc pass over a row of the block.
    """
    n = base.size
    acc = np.zeros(n)
    inner = np.empty(min(n, _SUM_BLOCK))
    terms = np.empty((8, inner.size))  # (k, block) for one j
    column = np.arange(8)[:, None]
    where = np.empty(terms.shape, dtype=np.intp)
    for s in range(0, n, _SUM_BLOCK):
        e = min(n, s + _SUM_BLOCK)
        out, part, prod, at = acc[s:e], inner[:e - s], terms[:, :e - s], where[:, :e - s]
        rows_b = rows[0].take(rows[1][s:e], axis=1)
        cols_b = cols[0].take(cols[1][s:e], axis=1)
        for j in range(8):
            np.add(base[s:e], j * stride + column, out=at)
            flat.take(at, out=prod, mode="wrap")  # every index is in range
            prod *= rows_b[j]
            prod *= cols_b
            if nested:
                part.fill(0.0)
                for term in prod:
                    part += term
                out += part
            else:
                for term in prod:
                    out += term
    return acc


def _near_ties(off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The flat indices of `off` where a value's distance from the integer
    it rounds to, off in [0, 0.5], lies within tol = 2^-36 (1 + 64 max|x|)
    of 0.5, a tie. The values are sums over the 8x8 blocks X of x, the
    input of their JPEG half: _quantize's quotients coef / step, with x
    jpeg_forward's padded image, and jpeg_inverse's pixels before rounding,
    with x the quantized coefficients.

    Only these values can round differently in another sum order. The
    bound: |D| <= 1/2, so each term is at most |X[j, k]| / 4, and a sum of
    the 64 terms in any order, or grouped as two matrix products group
    them, is within about 64 * 2^-53 * sum|X| / 4 of the exact one; two
    orders thus differ by under 2^-47 sum|X|. A quotient by a step >= 1
    shrinks that and adds a half-ulp of a value below sum|X| / 4: under
    2^-46 sum|X| in all. A pixel adds 128.5 at once, or 128 then 0.5,
    which rounds by at most 3 half-ulps of a value below 129 + sum|X| / 4:
    under 2^-43 + 2^-46 sum|X| in all. 64 max|x| bounds sum|X| of every
    block, so tol is over 100 times either total, and every other value
    rounds the same in either order.
    """
    top = max(x.max(initial=0.0), -x.min(initial=0.0))
    return np.flatnonzero(off > 0.5 - np.ldexp(1.0 + 64.0 * top, -36))


def _coefficients(padded: np.ndarray, idx) -> np.ndarray:
    """The coefficients at flat indices idx of jpeg_forward's coef layout,
    summed from the pair's `padded` in the order that defines the forward
    DCT: _quantize's fix-up for coefficients near a tie, its only caller.

    Coefficient (a, b, i, l) sums the terms (D[i, j] B[j, k]) D[l, k] of
    block B = padded[8a:8a + 8, 8b:8b + 8] in _written_sums' nested order
    with two or more block columns and its flat order with one: numpy
    einsum's orders for "ij,abjk,lk->abil" on the (block row, block column,
    8, 8) view of padded, each on its own shapes.
    """
    idx = np.asarray(idx, dtype=np.intp)
    ww = padded.shape[1]
    a, b = np.divmod(idx >> 6, ww // 8)
    return _written_sums(padded.reshape(-1), 8 * (a * ww + b), ww,  # block B of each
                         (_DCT.T, (idx >> 3) & 7),  # D[i, j]
                         (_DCT.T, idx & 7), ww > 8)  # D[l, k]


def _quantize(pair, level: float) -> np.ndarray:
    """jpeg_forward's coefficients quantized by the luminance table scaled
    with the level (steps floored at 1) and dequantized: round(coef / step)
    * step, with coef summed in the order of _coefficients. coef comes from
    jpeg_forward's matrix products, whose order can show only where
    coef / step is near a tie at .5 (_near_ties), so only those
    coefficients are summed again."""
    _check_level(level)
    coef, padded = pair
    steps = np.maximum(_QTABLE * (level * _LEVEL_SCALE), 1.0).reshape(64)
    q = coef.reshape(-1, 64) / steps  # rows of 64: numpy's inner loop runs 64 long, not 8
    out = np.round(q)
    off = np.abs(np.subtract(q, out, out=q), out=q)  # in place: q is not read again
    idx = _near_ties(off, padded)
    if idx.size:
        out.flat[idx] = np.round(_coefficients(padded, idx) / steps[idx & 63])
    out *= steps
    return out.reshape(coef.shape)


def jpeg_inverse(pair, level: float, shape) -> np.ndarray:
    """Second half of jpeg_attack: quantize jpeg_forward's coefficients by
    the luminance table scaled with the level (steps floored at 1),
    dequantize, inverse DCT, clamp, and crop the padding back to `shape`.
    `pair` is jpeg_forward's (coef, padded); a bare coefficient array is
    refused.

    Every pixel equals _jpeg_pixels at that pixel, whose summation order
    defines the result. The inverse DCT is computed as two matrix products,
    over k and then over j, whose order BLAS leaves open; it shows in a
    pixel only near a tie at .5 before the floor (_near_ties), so only
    those pixels are summed again by _jpeg_pixels, from the same quantized
    coefficients.
    """
    _check_blocks(pair, shape)
    q = _quantize(pair, level)
    bh, bw = q.shape[:2]
    t = (q.reshape(-1, 8) @ _DCT).reshape(bh, bw, 8, 8)  # over k: (a, b, j, l)
    t = (t.transpose(0, 1, 3, 2).reshape(-1, 8) @ _DCT).reshape(bh, bw, 8, 8)  # over j: (a, b, l, i)
    v = np.empty((8 * bh, 8 * bw))
    np.add(t.transpose(0, 3, 1, 2), 128.5, out=v.reshape(bh, 8, bw, 8))  # image layout
    out = np.floor(v)
    off = np.subtract(v, out, out=v)
    off -= 0.5
    h, w = shape
    idx = _near_ties(np.abs(off[:h, :w], out=off[:h, :w]), q)
    out = np.clip(out[:h, :w], 0, 255, out=out[:h, :w]).astype(np.uint8)
    if idx.size:
        out.flat[idx] = _jpeg_pixels(q, shape, idx)  # .flat: any memory order
    return out


def _jpeg_pixels(q: np.ndarray, shape, pixels) -> np.ndarray:
    """Pixels at flat indices `pixels` of jpeg_inverse's image of `shape`,
    from the quantized coefficients q (block row, block column, 8, 8) it
    computed: jpeg_inverse's fix-up for pixels near a tie, its only caller.

    Pixel (y, x) is floor((s + 128) + 0.5), clamped, for the sum s of the
    terms (D[j, i] Q[a, b, j, k]) D[k, l] with a, i = divmod(y, 8) and
    b, l = divmod(x, 8), in _written_sums' flat order: numpy einsum's order
    for "ji,abjk,kl->abil". This order is the definition of the JPEG
    inverse.
    """
    y, x = np.divmod(np.asarray(pixels, dtype=np.intp), shape[1])
    acc = _written_sums(q.reshape(-1), 64 * ((y >> 3) * q.shape[1] + (x >> 3)), 8,  # Q[a, b]
                        (_DCT, y & 7),  # D[j, i]
                        (_DCT, x & 7), nested=False)  # D[k, l]
    acc += 128.0
    acc += 0.5
    return np.clip(np.floor(acc, out=acc), 0, 255).astype(np.uint8)


def jpeg_attack(img, level: float) -> np.ndarray:
    """Per 8x8 block: DCT, quantize by the luminance table scaled with the
    compression level (steps floored at 1), dequantize, inverse DCT, clamp.

    Higher level means coarser quantization. Images whose sides are not
    multiples of 8 are padded by edge replication and cropped back.
    """
    a = _check_gray(img)
    return jpeg_inverse(jpeg_forward(a), level, a.shape)


def standard_noise(shape, seed: int) -> np.ndarray:
    """The draw behind noise_offsets: one standard normal z per pixel of an
    image of `shape`, from default_rng(seed); seed must be a non-negative
    integer. It does not depend on sigma, so one draw serves every sigma."""
    _check_noise_seed(seed)
    return np.random.default_rng(seed).standard_normal(shape)


def scaled_noise(z: np.ndarray, sigma: float) -> np.ndarray:
    """The offsets of a standard_noise draw z at a checked sigma: sigma z
    rounded half away from zero. numpy's normal(0, sigma) returns
    0 + sigma z for the same z, so these are the offsets of N(0, sigma^2)
    drawn from that generator."""
    noise = sigma * z
    out = np.abs(noise)
    out += 0.5
    return np.copysign(np.floor(out, out=out), noise, out=out)


def noise_offsets(shape, sigma: float, seed: int) -> np.ndarray:
    """First half of gaussian_noise_attack: independent N(0, sigma^2) per
    pixel of an image of `shape`, rounded half away from zero; seed must
    not be None."""
    _check_sigma(sigma)
    return scaled_noise(standard_noise(shape, seed), sigma)


def add_offsets(img, offsets: np.ndarray) -> np.ndarray:
    """Second half of gaussian_noise_attack: add, clamp to [0, 255]."""
    a = _check_shape(_check_gray(img), offsets.shape)
    return np.clip(a.astype(np.float64) + offsets, 0, 255).astype(np.uint8)


def gaussian_noise_attack(img, sigma: float, seed: int) -> np.ndarray:
    """Add independent N(0, sigma^2) per pixel, round half away from zero,
    clamp to [0, 255]. Deterministic for a given seed."""
    a = _check_gray(img)
    return add_offsets(a, noise_offsets(a.shape, sigma, seed))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB (peak 255); inf for identical images."""
    x = _check_gray(a).astype(np.float64)
    y = _check_gray(b).astype(np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError(f"PSNR of an empty {x.shape[1]}x{x.shape[0]} image is undefined")
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
    rows, cols = np.mgrid[0:size, 0:size]
    y, x = rows * (2 * np.pi / size), cols * (2 * np.pi / size)
    c = size / 2.0
    r2 = ((cols - c) ** 2 + (rows - c) ** 2) / c ** 2
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
