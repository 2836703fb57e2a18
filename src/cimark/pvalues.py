"""p-value numerics shared by the statistical tests."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

DEFAULT_EPSILON = 1e-4


def chi_square_pvalue(stat: float, dof: int) -> float:
    """Upper-tail probability of a chi-square statistic via the regularized
    incomplete gamma function."""
    if stat < 0:
        raise ValueError("statistic must be nonnegative")
    if dof < 1:
        raise ValueError("dof must be positive")
    return float(special.gammaincc(dof / 2.0, stat / 2.0))


def normal_cdf(x):
    return special.ndtr(x)


def kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution,
    2 * sum_{r>=1} (-1)^(r-1) exp(-2 r^2 y^2)."""
    total = 0.0
    sign = 1.0
    for r in range(1, 101):
        term = math.exp(-2.0 * r * r * y * y)
        total += sign * term
        if term < 1e-18:
            return min(1.0, max(0.0, 2.0 * total))
        sign = -sign
    return 1.0  # not converged: y < 0.0456, where the function is 1 in doubles


def ks_statistic(values) -> float:
    """Two-sided KS distance between a sample and the uniform CDF on [0,1]."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        raise ValueError("empty sample")
    if v[0] < 0 or v[-1] > 1:
        raise ValueError("values must lie in [0, 1]")
    grid = np.arange(1, n + 1) / n
    d_plus = float((grid - v).max())
    d_minus = float((v - (grid - 1.0 / n)).max())
    return max(d_plus, d_minus)


def ks_uniformity(p_values) -> float:
    """p-value of the KS test of a sample against uniform [0,1), using the
    asymptotic Kolmogorov distribution with the small-sample correction
    (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D."""
    d = ks_statistic(p_values)
    n = len(p_values)
    rootn = math.sqrt(n)
    return kolmogorov_sf((rootn + 0.12 + 0.11 / rootn) * d)


def verdict(p_values, epsilon: float = DEFAULT_EPSILON) -> bool:
    """True (pass) unless any p-value falls within epsilon of 0 or 1 or is
    NaN (a NaN lies in no interval, so it fails the range check)."""
    for p in p_values:
        if not epsilon <= p <= 1.0 - epsilon:
            return False
    return True
