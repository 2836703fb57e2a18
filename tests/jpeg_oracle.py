"""Reference JPEG halves, tie-prone fixtures and the other-BLAS-kernel
run for the imaging tests.

The references are numpy einsums. The forward DCT is one einsum on the
(block row, block column, 8, 8) view of the padded image, whose sum order
follows that view's layout; its coefficients are quantized by plain
rounding. The inverse is one einsum that sums each pixel's 64 terms flat in
j-major order from 0, acc += (D[j, i] Q[j, k]) D[k, l]. They share no code
path with `cimark.imaging`'s matrix products or with its one written-order
re-sum (`_written_sums`, reached through `_coefficients` and
`_jpeg_pixels`), so both halves are checked against them where the order
shows: at quantization ties at .5 in the forward half, and at ties at .5
before the floor in the inverse. Both halves re-sum the values that
`_near_ties` flags under one image-wide tolerance.

`kernel_run` computes the digests of both halves and the golden sweep rows
in one child process per OpenBLAS kernel, for the tests that compare them
with the host's kernel."""

import functools
import hashlib
import os
import subprocess
import sys

import numpy as np

from cimark.cli import BENCH_GRID
from cimark.imaging import (_DCT, _LEVEL_SCALE, _QTABLE, _dct_pair, _quantize, jpeg_forward,
                            jpeg_inverse, synthetic_carrier, synthetic_watermark)
from cimark.watermark import robustness_sweep

# The golden sweep's keys (test_watermark's KEY1, KEY2).
SWEEP_KEYS = (0x1111AAAA, 0x2222BBBB)

# Shapes for the tie-prone cases: 1x1, sides of at most 8, sides that are
# not multiples of 8 and a few frames of many blocks.
SUBSET_SHAPES = sorted(
    {(h, w) for h in (1, 2, 5, 8) for w in (1, 3, 6, 8)}
    | {s for h in (1, 4, 8) for w in (9, 16, 17, 31) for s in ((h, w), (w, h))}
    | {(9, 9), (15, 23), (17, 40), (24, 33), (39, 39), (41, 16), (56, 65), (63, 72),
       (67, 61), (100, 37), (130, 7), (7, 130), (64, 64), (203, 245), (256, 256),
       (257, 9), (9, 257)})
SUBSET_LEVELS = (0.5, 1, 1.5, 2, 5, 10, 20, 50, 75, 100)

# Levels for the forward tie cases: steps of 1 at (0|4, 0|4) below 1.84,
# and at 15.625 .. 250 a DC step of 2 .. 32, exact, so that coefficients that
# are exact multiples of 1/8 land on .5 after the division.
FORWARD_LEVELS = (0.5, 1, 2, 5, 7.8125, 15.625, 31.25, 62.5, 125, 250)

# D[4, .] is +-1/sqrt(8), as D[0, .] is 1/sqrt(8), in exact arithmetic.
_SIGN = np.sign(_DCT[4])


def reference_forward(padded: np.ndarray) -> np.ndarray:
    """The DCT of each 8x8 block of `padded` as one einsum on the block
    view, laid out as (block row, block column, 8, 8)."""
    hh, ww = padded.shape
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    return np.einsum("ij,abjk,lk->abil", _DCT, blocks, _DCT)


def steps_at(level: float) -> np.ndarray:
    """The (8, 8) quantization steps of a level: the luminance table scaled
    with it, floored at 1."""
    return np.maximum(_QTABLE * (level * _LEVEL_SCALE), 1.0)


def reference_quantize(pair, level: float) -> np.ndarray:
    """The einsum forward of the pair's padded image, quantized by plain
    rounding: round(coef / step) * step."""
    steps = steps_at(level)
    return np.round(reference_forward(pair[1]) / steps) * steps


def inverse_sums(pair, level: float) -> np.ndarray:
    """The reference quantized coefficients' inverse DCT plus 128, laid out
    as the padded image (8 * block rows, 8 * block columns), before the
    floor."""
    q = reference_quantize(pair, level)
    bh, bw = q.shape[:2]
    rec = np.einsum("ji,abjk,kl->abil", _DCT, q, _DCT)
    return rec.transpose(0, 2, 1, 3).reshape(8 * bh, 8 * bw) + 128.0


def reference_inverse(pair, level: float, shape) -> np.ndarray:
    """jpeg_inverse with the einsum sums: round half up, clamp to 0..255,
    crop to `shape`."""
    out = np.clip(np.floor(inverse_sums(pair, level) + 0.5), 0, 255).astype(np.uint8)
    h, w = shape
    return out[:h, :w]


def span_blocks(c00, c40, c04, c44) -> np.ndarray:
    """8x8 blocks whose only DCT coefficients in exact arithmetic are c at
    (0|4, 0|4): (c00 + c40 s_j + c04 s_k + c44 s_j s_k) / 8, s the sign of
    D[4, .]. Each argument is an array of per-block values."""
    c = [np.asarray(v, dtype=np.float64)[..., None, None] for v in (c00, c40, c04, c44)]
    sj, sk = _SIGN[:, None], _SIGN[None, :]
    return (c[0] + c[1] * sj + c[2] * sk + c[3] * (sj * sk)) / 8.0


def tie_prone_pair(rng, h, w):
    """jpeg_forward's pair for a random h x w image, then a checkerboard of
    the padded image's blocks replaced by span_blocks of integers in
    [-300, 300] and the pair recomputed. Their coefficients quantize to
    those integers at steps of 1, and about one such pixel in 8 of the
    inverse sums to a tie at .5 before the floor, where the float rounding
    of the sum order decides the pixel."""
    padded = jpeg_forward(rng.integers(0, 256, size=(h, w), dtype=np.uint8))[1]
    bh, bw = padded.shape[0] // 8, padded.shape[1] // 8
    view = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3)
    tie = np.add.outer(np.arange(bh), np.arange(bw)) % 2 == 0
    view[tie] = span_blocks(*rng.integers(-300, 301, size=(4, np.count_nonzero(tie))))
    return _dct_pair(padded)


def tie_prone_cases():
    """(shape, pair, sampled pixels) per shape of SUBSET_SHAPES, the pixels
    in any order and with repeats; each shape is run at every level of
    SUBSET_LEVELS, 570 cases in all."""
    rng = np.random.default_rng(26)
    for h, w in SUBSET_SHAPES:
        pair = tie_prone_pair(rng, h, w)
        yield (h, w), pair, rng.integers(0, h * w, size=min(2 * h * w, 4096))


def tie_prone_digest() -> str:
    """sha256 of jpeg_inverse over every tie-prone case."""
    digest = hashlib.sha256()
    for shape, pair, _ in tie_prone_cases():
        for level in SUBSET_LEVELS:
            digest.update(jpeg_inverse(pair, level, shape).tobytes())
    return digest.hexdigest()


def forward_tie_image(rng, h, w) -> np.ndarray:
    """An h x w uint8 image made of 8x8 tiles, each one of: flat; 128 but
    for one pixel 128 + 4 (2m + 1); two values 128 + 4 (2m + 1) and 128;
    random. The first three have DCT coefficients at (0|4, 0|4) that are
    exact multiples of 1/8, on .5 at steps of 1 (and at some larger steps
    of FORWARD_LEVELS), where the float rounding of the sum order decides
    the quantization."""
    bh, bw = -(-h // 8), -(-w // 8)
    img = np.full((bh, bw, 8, 8), 128, dtype=np.int64)
    kind = rng.integers(0, 4, size=(bh, bw))
    offset = 4 * (2 * rng.integers(-15, 15, size=(bh, bw)) + 1)
    img[kind == 0] = rng.integers(0, 256, size=(np.count_nonzero(kind == 0), 1, 1))
    one = np.flatnonzero(kind == 1)
    img.reshape(-1, 64)[one, rng.integers(0, 64, size=one.size)] += offset.reshape(-1)[one]
    two = kind == 2
    img[two] += (rng.random((np.count_nonzero(two), 8, 8)) < 0.5) * offset[two][:, None, None]
    img[kind == 3] = rng.integers(0, 256, size=(np.count_nonzero(kind == 3), 8, 8))
    return img.transpose(0, 2, 1, 3).reshape(8 * bh, 8 * bw)[:h, :w].astype(np.uint8)


def forward_tie_cases():
    """(image, pair) per shape of SUBSET_SHAPES, one-block-column shapes
    among them; each is run at every level of FORWARD_LEVELS."""
    rng = np.random.default_rng(31)
    for h, w in SUBSET_SHAPES:
        img = forward_tie_image(rng, h, w)
        yield img, jpeg_forward(img)


def forward_tie_digest() -> str:
    """sha256 of _quantize and jpeg_inverse over every forward tie case.
    Adding 0.0 turns -0.0 into 0.0: a coefficient of about 1e-15 rounds to
    a zero whose sign follows the BLAS kernel, and no pixel reads it."""
    digest = hashlib.sha256()
    for img, pair in forward_tie_cases():
        for level in FORWARD_LEVELS:
            digest.update((_quantize(pair, level) + 0.0).tobytes())
            digest.update(jpeg_inverse(pair, level, img.shape).tobytes())
    return digest.hexdigest()


def sweep_rows() -> list:
    """The golden sweep's rows (test_watermark's GOLDEN_SWEEP) as lists,
    each similarity in float hex."""
    rows = robustness_sweep(synthetic_carrier(3), synthetic_watermark(0), *SWEEP_KEYS,
                            BENCH_GRID, noise_seed=0x5EED)
    return [[k, p, m, float(s).hex()] for k, p, m, s in rows]


# Prints [forward_tie_digest(), tie_prone_digest(), sweep_rows()] as JSON.
_KERNEL_SCRIPT = """
import json
from jpeg_oracle import forward_tie_digest, sweep_rows, tie_prone_digest
print(json.dumps([forward_tie_digest(), tie_prone_digest(), sweep_rows()]))
"""


@functools.cache
def kernel_run(core: str) -> subprocess.CompletedProcess:
    """A child process that prints, as JSON, the forward tie digest, the
    tie-prone digest and the golden sweep rows under the OpenBLAS kernel
    `core`, selected in the child only. Run once per kernel and shared by
    the tests of both halves."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", _KERNEL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
