import math

import numpy as np
import pytest
from scipy import special

from cimark.pvalues import (
    chi_square_pvalue,
    kolmogorov_sf,
    ks_uniformity,
    normal_cdf,
    verdict,
)


def chi_square_upper_tail_quadrature(stat, dof, steps=200_000):
    """Independent oracle: Simpson integration of the chi-square density on
    [0, stat], upper tail = 1 - integral."""
    k2 = dof / 2.0
    lognorm = k2 * math.log(2.0) + math.lgamma(k2)

    def density(x):
        if x <= 0:
            return 0.0
        return math.exp((k2 - 1.0) * math.log(x) - x / 2.0 - lognorm)

    h = stat / steps
    total = density(0.0) + density(stat)
    for i in range(1, steps):
        total += density(i * h) * (4 if i % 2 else 2)
    return 1.0 - total * h / 3.0


class TestChiSquare:
    def test_zero_stat(self):
        assert chi_square_pvalue(0.0, 5) == 1.0

    def test_dof2_closed_form(self):
        # dof=2 is an exponential: upper tail = exp(-stat/2)
        assert chi_square_pvalue(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)
        for stat in (0.1, 1.0, 7.3):
            assert chi_square_pvalue(stat, 2) == pytest.approx(math.exp(-stat / 2), abs=1e-12)

    def test_classic_table_value(self):
        p = chi_square_pvalue(18.307, 10)
        assert p == pytest.approx(0.05, abs=1e-3)
        assert p == pytest.approx(chi_square_upper_tail_quadrature(18.307, 10), abs=1e-8)

    @pytest.mark.parametrize("stat,dof", [(3.0, 4), (25.0, 30), (600.0, 500), (1100.0, 1000)])
    def test_vs_quadrature(self, stat, dof):
        assert chi_square_pvalue(stat, dof) == pytest.approx(
            chi_square_upper_tail_quadrature(stat, dof), abs=1e-8
        )

    def test_monotone_decreasing_in_stat(self):
        for dof in (1, 6, 2500):
            grid = np.linspace(0.0, 4.0 * dof, 60)
            ps = [chi_square_pvalue(s, dof) for s in grid]
            assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chi_square_pvalue(-1.0, 3)
        with pytest.raises(ValueError):
            chi_square_pvalue(1.0, 0)


class TestKolmogorov:
    def test_equispaced_sample_not_extreme(self):
        n = 1000
        vals = (np.arange(1, n + 1)) / (n + 1)
        p = ks_uniformity(vals)
        assert 0.5 < p <= 1.0

    def test_identical_values(self):
        assert ks_uniformity([0.3] * 200) < 1e-6

    def test_uniform_draws_inside_band(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = ks_uniformity(rng.random(10_000))
            assert 0.001 <= p <= 0.999

    def test_sf_bounds(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(3.0) < 1e-6
        ys = np.linspace(0.2, 2.5, 30)
        vals = [kolmogorov_sf(y) for y in ys]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ks_uniformity([0.5, 1.2])

    def test_sf_matches_scipy(self):
        """Equal to scipy's Kolmogorov survival function over [0, 3],
        including small arguments, where 100 terms of the series do not
        converge and the function is 1 to double precision."""
        ys = np.concatenate([np.linspace(0.0, 3.0, 3001), [1.5e-4, 0.01, 0.0455]])
        got = np.array([kolmogorov_sf(float(y)) for y in ys])
        assert np.abs(got - special.kolmogorov(ys)).max() <= 1e-13

    def test_evenly_spread_sample_gives_one(self):
        assert ks_uniformity((np.arange(2000) + 0.5) / 2000) == 1.0


class TestNormalCdf:
    def test_symmetry_and_known_point(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert float(normal_cdf(1.959963985)) == pytest.approx(0.975, abs=1e-6)


class TestVerdict:
    def test_pass_midrange(self):
        assert verdict([0.5]) is True

    def test_upper_tail_fails(self):
        assert verdict([0.99995]) is False

    def test_lower_tail_fails(self):
        assert verdict([0.00005]) is False

    def test_threshold_configurable(self):
        assert verdict([0.995], epsilon=1e-2) is False
        assert verdict([0.995], epsilon=1e-4) is True

    def test_any_extreme_fails(self):
        assert verdict([0.4, 0.6, 0.999999]) is False

    def test_nan_fails(self):
        # a NaN compares false both ways: only an "inside the range" test fails it
        assert verdict([float("nan")]) is False
        assert verdict([0.5, float("nan")]) is False
