import functools

import numpy as np
import pytest

from sphsplines.legendre import resynthesize
from sphsplines.pdo import check_compatibility, green_series, sobolev_symbol


def test_sobolev_values():
    assert sobolev_symbol(1.0, 0) == pytest.approx(1.0)
    assert sobolev_symbol(1.0, 1) == pytest.approx(3.0)
    assert sobolev_symbol(2.0, 2) == pytest.approx(49.0)


def test_sobolev_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        sobolev_symbol(0.0, 1)


@pytest.mark.parametrize(
    "sym,p",
    [
        (functools.partial(sobolev_symbol, 1.5), 3.0),
        (functools.partial(sobolev_symbol, 2.5), 5.0),
    ],
)
def test_growth_order_matches_loglog_fit(sym, p):
    ns = np.arange(32, 1025)
    vals = np.abs(sym(ns))
    slope = np.linalg.lstsq(
        np.stack([np.log(ns), np.ones_like(ns, float)], axis=1),
        np.log(vals),
        rcond=None,
    )[0][0]
    assert slope == pytest.approx(p, rel=0.20)


def test_spline_admissibility():
    # the Green series needs growth order 2*beta > d - 1 = 2
    assert len(green_series(1.5, tol=1e-4)) > 0  # p = 3 > 2
    with pytest.raises(ValueError, match=r"growth order 2 <= 2"):
        green_series(1.0)  # p = 2 = d-1 is not strict
    assert len(green_series(2.0)) > 0


def test_green_series_rejects_inadmissible():
    with pytest.raises(ValueError):
        green_series(0.0)  # symbol (1 + n(n+1))^0 = 1, growth order 0


def test_green_series_sobolev_beta2_peak():
    series = green_series(2.0, tol=1e-12)
    # independent brute-force partial sum of sum (2n+1)/(4 pi (1+n(n+1))^2);
    # terms ~ n^-3 so the 1e6 cut leaves a ~8e-14 remainder
    n = np.arange(0, 1_000_000)
    oracle = np.sum((2 * n + 1) / (4 * np.pi * (1 + n * (n + 1.0)) ** 2))
    assert resynthesize(series, 1.0) == pytest.approx(oracle, abs=1e-10)


def test_green_series_coeffs_exact_pseudoinverse():
    series = green_series(2.5, tol=1e-8)
    ns = np.arange(len(series))
    np.testing.assert_allclose(series.coeffs, 1.0 / sobolev_symbol(2.5, ns),
                               rtol=1e-14)


def test_green_series_truncation_scaling():
    # N(tol) ~ tol^{-1/(2 beta - 2)}: for beta = 2.5 an 100x tol drop should
    # grow N by ~100^{1/3} ~ 4.6; assert the ratio lands in [2, 10]
    n6 = len(green_series(2.5, tol=1e-6))
    n8 = len(green_series(2.5, tol=1e-8))
    assert 2.0 < n8 / n6 < 10.0


def test_green_series_continuity():
    series = green_series(2.5, tol=1e-8)
    t = np.linspace(-1, 1, 4001)
    vals = resynthesize(series, t)
    assert np.max(np.abs(np.diff(vals))) < 1e-3


def test_green_series_truncation_is_pinned():
    # N of the tail-bound bisection, pinned; coefficients are 1/symbol exactly
    for beta, tol, length in [(2.0, 1e-8, 2865), (2.5, 1e-8, 175),
                              (1.5, 1e-4, 1791)]:
        series = green_series(beta, tol=tol)
        assert len(series) == length
        n = np.arange(length)
        assert np.array_equal(series.coeffs, 1.0 / (1.0 + n * (n + 1.0)) ** beta)


def test_green_series_tol_is_keyword_only():
    with pytest.raises(TypeError):
        green_series(2.0, 1e-8)


def test_check_compatibility():
    check_compatibility(2.5, "dirac")
    check_compatibility(2.5, "square_integrable")
    with pytest.raises(ValueError, match=r"decay order 1 is too small for dirac "
                                         r"sampling \(needs > 2\)"):
        check_compatibility(0.5, "dirac")  # growth 1, like fractional Laplacian q=2
    with pytest.raises(ValueError):
        check_compatibility(1.0, "patch")
    # both thresholds are strict
    check_compatibility(0.51, "square_integrable")
    with pytest.raises(ValueError, match=r"square_integrable sampling \(needs > 1\)"):
        check_compatibility(0.5, "square_integrable")
    with pytest.raises(ValueError, match=r"dirac sampling \(needs > 2\)"):
        check_compatibility(1.0, "dirac")
