"""Reference JPEG inverse and tie-prone fixture for the imaging tests.

The reference is the whole inverse block DCT as one numpy einsum, which sums
each pixel's 64 terms flat in j-major order from 0, acc += (D[j, i] Q[j, k])
D[k, l]. It shares no code path with `cimark.imaging.jpeg_inverse`'s matrix
products or with `_jpeg_pixels`'s written-out loop, so both are checked
against it where the order shows: at ties at .5 before the floor."""

import hashlib

import numpy as np

from cimark.imaging import _DCT, _quantize, jpeg_forward, jpeg_inverse

# Shapes for the tie-prone cases: 1x1, sides of at most 8, sides that are
# not multiples of 8 and a few frames of many blocks.
SUBSET_SHAPES = sorted(
    {(h, w) for h in (1, 2, 5, 8) for w in (1, 3, 6, 8)}
    | {s for h in (1, 4, 8) for w in (9, 16, 17, 31) for s in ((h, w), (w, h))}
    | {(9, 9), (15, 23), (17, 40), (24, 33), (39, 39), (41, 16), (56, 65), (63, 72),
       (67, 61), (100, 37), (130, 7), (7, 130), (64, 64), (203, 245), (256, 256),
       (257, 9), (9, 257)})
SUBSET_LEVELS = (0.5, 1, 1.5, 2, 5, 10, 20, 50, 75, 100)


def inverse_sums(coef: np.ndarray, level: float) -> np.ndarray:
    """The quantized coefficients' inverse DCT plus 128, laid out as the
    padded image (8 * block rows, 8 * block columns), before the floor."""
    q = _quantize(coef, level)
    bh, bw = q.shape[:2]
    rec = np.einsum("ji,abjk,kl->abil", _DCT, q, _DCT)
    return rec.transpose(0, 2, 1, 3).reshape(8 * bh, 8 * bw) + 128.0


def reference_inverse(coef: np.ndarray, level: float, shape) -> np.ndarray:
    """jpeg_inverse with the einsum sum: round half up, clamp to 0..255,
    crop to `shape`."""
    out = np.clip(np.floor(inverse_sums(coef, level) + 0.5), 0, 255).astype(np.uint8)
    h, w = shape
    return out[:h, :w]


def tie_prone_coef(rng, h, w):
    """jpeg_forward of a random h x w image with a checkerboard of its
    blocks replaced by integer coefficients at (0|4, 0|4) only. D[0, i] and
    D[4, i] are +-1/sqrt(8) in exact arithmetic, so at levels whose steps
    there are 1 about one such pixel in 8 sums to a tie at .5 before the
    floor, and the float rounding of the sum order decides the pixel."""
    coef = jpeg_forward(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    bh, bw = coef.shape[:2]
    tie = np.add.outer(np.arange(bh), np.arange(bw)) % 2 == 0
    blocks = np.zeros((np.count_nonzero(tie), 8, 8))
    blocks[:, ::4, ::4] = rng.integers(-300, 301, size=(blocks.shape[0], 2, 2))
    coef[tie] = blocks
    return coef


def tie_prone_cases():
    """(shape, coefficients, sampled pixels) per shape of SUBSET_SHAPES,
    the pixels in any order and with repeats; each shape is run at every
    level of SUBSET_LEVELS, 570 cases in all."""
    rng = np.random.default_rng(26)
    for h, w in SUBSET_SHAPES:
        coef = tie_prone_coef(rng, h, w)
        yield (h, w), coef, rng.integers(0, h * w, size=min(2 * h * w, 4096))


def tie_prone_digest() -> str:
    """sha256 of jpeg_inverse over every tie-prone case."""
    digest = hashlib.sha256()
    for shape, coef, _ in tie_prone_cases():
        for level in SUBSET_LEVELS:
            digest.update(jpeg_inverse(coef, level, shape).tobytes())
    return digest.hexdigest()
