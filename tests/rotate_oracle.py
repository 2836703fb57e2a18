"""Reference rotate round trip for the imaging tests: each rotation is its
own nearest-neighbour gather over the whole frame, so the reference shares
no index composition with `cimark.imaging.rotation_map`."""

import math

import numpy as np


def rotate_once(a: np.ndarray, theta_deg: float) -> np.ndarray:
    """Rotate by theta about the pixel-coordinate center (w/2, h/2) with
    nearest-neighbor sampling; samples falling outside the frame read as 0."""
    h, w = a.shape
    cy, cx = h / 2.0, w / 2.0
    th = math.radians(theta_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    # inverse map: source coordinates that land on this output pixel
    px = np.floor(cos_t * dx + sin_t * dy + cx + 0.5).astype(np.int64)
    py = np.floor(-sin_t * dx + cos_t * dy + cy + 0.5).astype(np.int64)
    inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
    vals = a[np.clip(py, 0, h - 1), np.clip(px, 0, w - 1)]
    return np.where(inside, vals, 0).astype(np.uint8)


def rotate_round_trip(a: np.ndarray, theta_deg: float) -> np.ndarray:
    """Rotate by theta, then the result by -theta."""
    return rotate_once(rotate_once(a, theta_deg), -theta_deg)
