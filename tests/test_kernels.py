from fractions import Fraction

import numpy as np
import pytest

from sphsplines.gram import knot_gram
from sphsplines.kernels import (
    ZonalKernel,
    epsilon_for_fwhm,
    lipschitz_estimate,
    matern_halfinteger,
    matern_zonal,
    self_convolve,
    sobolev_green_zonal,
    wendland_construct,
    wendland_zonal,
)
from sphsplines.legendre import LegendreSeries, fourier_legendre, resynthesize, tabulate
from sphsplines.pdo import green_series
from sphsplines.sphere import fibonacci_lattice

from oracles import matern_bessel, self_convolution_quad


def test_matern_halfinteger_p0():
    assert matern_halfinteger(0, 0.0) == pytest.approx(1.0)
    assert matern_halfinteger(0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)
    r = np.linspace(0, 4, 30)
    np.testing.assert_allclose(matern_halfinteger(0, r), np.exp(-r), rtol=1e-14)


def test_matern_halfinteger_p1_frozen():
    # (1 + sqrt(3)) exp(-sqrt(3)), frozen from the Bessel oracle
    assert matern_halfinteger(1, 1.0) == pytest.approx(0.48335772459650475, rel=1e-12)
    assert matern_halfinteger(1, 1.0) == pytest.approx(
        (1 + np.sqrt(3)) * np.exp(-np.sqrt(3)), rel=1e-14
    )


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_matern_matches_bessel_oracle(p):
    rng = np.random.default_rng(10 + p)
    r = rng.uniform(0.0, 5.0, size=20) + 1e-9
    np.testing.assert_allclose(
        matern_halfinteger(p, r), matern_bessel(p + 0.5, r), rtol=1e-8
    )


def test_matern_zonal_peak():
    for conv in ("standard", "eq60"):
        kern = matern_zonal(2.5, 0.1, convention=conv)
        assert kern(1.0) == pytest.approx(1.0, abs=1e-14)


def test_matern_zonal_eq60_values():
    kern = matern_zonal(2.5, 0.1, convention="eq60")
    # chord c = eps: (1+1)e^{-1}
    assert kern(1 - 0.1**2 / 2) == pytest.approx(2 * np.exp(-1.0), rel=1e-12)
    # antipode, c = 2: 21 e^{-20}
    assert kern(-1.0) == pytest.approx(21 * np.exp(-20.0), rel=1e-10)


def test_matern_zonal_standard_uses_full_rate():
    kern = matern_zonal(2.5, 0.1, convention="standard")
    c = 0.1
    x = np.sqrt(3.0) * c / 0.1
    assert kern(1 - c**2 / 2) == pytest.approx((1 + x) * np.exp(-x), rel=1e-12)


def test_matern_zonal_rejects_bad_orders():
    with pytest.raises(ValueError):
        matern_zonal(2.0, 0.1)  # nu = 1 not half-integer
    with pytest.raises(ValueError):
        matern_zonal(2.5, 0.0)
    with pytest.raises(ValueError):
        matern_zonal(2.5, 0.1, convention="other")


def test_wendland_construct_30():
    poly = wendland_construct(3, 0)
    assert poly.coeffs == [Fraction(1), Fraction(-2), Fraction(1)]  # (1-r)^2


def test_wendland_construct_31_exact():
    poly = wendland_construct(3, 1)
    assert poly.coeffs == [
        Fraction(1), Fraction(0), Fraction(-10), Fraction(20), Fraction(-15),
        Fraction(4),
    ]  # == (1-r)^4 (1+4r)
    r = np.linspace(0, 1, 101)
    np.testing.assert_allclose(poly(r[:-1]), (1 - r[:-1]) ** 4 * (1 + 4 * r[:-1]),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d,k", [(1, 0), (3, 0), (3, 1), (3, 2), (5, 1)])
def test_wendland_construct_endpoints(d, k):
    poly = wendland_construct(d, k)
    assert poly(0.0) == pytest.approx(1.0)
    assert poly(1.0) == 0.0
    assert poly(1.5) == 0.0


def test_wendland_zonal_values():
    kern = wendland_zonal(3, 1, 0.2)
    assert kern(1.0) == pytest.approx(1.0)
    assert kern(1 - 0.2**2 / 2) == 0.0  # support boundary, exact
    assert kern(-0.5) == 0.0
    # c = 0.1 -> r = 0.5 -> 0.5^4 * 3
    assert kern(1 - 0.1**2 / 2) == pytest.approx(0.1875, rel=1e-12)
    assert kern.beta == pytest.approx(2.5)
    assert kern.support_tmin == pytest.approx(1 - 0.02)


def test_wendland_zonal_needs_d_at_least_3():
    # phi_{d,k} is positive definite on R^d only: restricted from R^3 to the
    # sphere, the R^1 polynomial phi_{1,0} gives an indefinite knot Gram
    knots = fibonacci_lattice(400)
    phi = wendland_construct(1, 0)
    rough = ZonalKernel(lambda t: phi(np.sqrt(2.0 - 2.0 * t) / 0.5))
    assert np.linalg.eigvalsh(knot_gram(rough, knots)).min() < -0.1
    assert np.linalg.eigvalsh(knot_gram(wendland_zonal(3, 0, 0.5), knots)).min() > 0
    for d in (1, 2):
        with pytest.raises(ValueError, match="d must be an integer >= 3"):
            wendland_zonal(d, 0, 0.5)


def test_sobolev_green_zonal_domain_error():
    with pytest.raises(ValueError):
        sobolev_green_zonal(1.0)


def test_sobolev_green_zonal_tol_is_keyword_only():
    # a stale positional dimension must not be read as a tolerance
    with pytest.raises(TypeError):
        sobolev_green_zonal(2.0, 3)


def test_sobolev_green_zonal_peak_and_symmetry():
    kern = sobolev_green_zonal(2.0)
    assert kern(1.0) == pytest.approx(1.0, abs=1e-12)
    t = np.linspace(-1, 1, 101)
    vals = kern(t)
    assert np.all(np.isfinite(vals))
    # pre-normalisation peak against the independent partial-sum oracle
    series = green_series(2.0, tol=1e-12)
    n = np.arange(0, 1_000_000)
    oracle = np.sum((2 * n + 1) / (4 * np.pi * (1 + n * (n + 1.0)) ** 2))
    assert resynthesize(series, 1.0) == pytest.approx(oracle, abs=1e-10)


def test_self_convolve_constant():
    series = LegendreSeries(np.array([4 * np.pi]))
    conv = self_convolve(series)
    assert conv.coeffs[0] == pytest.approx((4 * np.pi) ** 2)
    # psi * psi == 4*pi everywhere for psi == 1
    assert resynthesize(conv, 0.3) == pytest.approx(4 * np.pi, rel=1e-14)


def test_self_convolve_single_mode():
    series = LegendreSeries(np.array([0.0, 2.0]))
    conv = self_convolve(series)
    np.testing.assert_allclose(conv.coeffs, [0.0, 4.0])


def test_self_convolve_matches_quadrature_oracle():
    kern = matern_zonal(2.5, 0.2, convention="standard")
    conv = self_convolve(kern.series(512, 600))
    rng = np.random.default_rng(4)
    for t0 in rng.uniform(-1.0, 1.0, size=5):
        oracle = self_convolution_quad(kern, float(t0))
        assert resynthesize(conv, float(t0)) == pytest.approx(oracle, abs=1e-5)


def test_coefficients_positive():
    for kern in (matern_zonal(2.5, 0.1), wendland_zonal(3, 1, 0.2)):
        series = kern.series(256, 600)
        assert np.all(series.coeffs > 0)


@pytest.mark.parametrize(
    "kern,eps",
    [
        (matern_zonal(2.5, 0.1, convention="standard"), 0.1),
        (matern_zonal(2.5, 0.1, convention="eq60"), 0.1),
        (wendland_zonal(3, 1, 0.2), 0.2),
    ],
)
def test_loglog_decay_slope(kern, eps):
    coeffs = kern.series(512, 600).coeffs
    n = np.arange(16, 257)
    design = np.stack([np.log(1 + eps * n), np.ones_like(n, float)], axis=1)
    slope = np.linalg.lstsq(design, np.log(coeffs[16:257]), rcond=None)[0][0]
    assert slope == pytest.approx(-2 * kern.beta, rel=0.20)


@pytest.mark.parametrize(
    "kern",
    [
        matern_zonal(2.5, 0.05),
        matern_zonal(2.5, 0.2, convention="eq60"),
        wendland_zonal(3, 1, 0.05),
        wendland_zonal(3, 1, 0.2),
    ],
)
def test_bell_shape(kern):
    t = np.linspace(-1, 1, 2001)
    vals = kern(t)  # ascending t = descending chord
    assert np.all(np.diff(vals) >= -1e-12)


def test_lipschitz_constant_kernel():
    kern = ZonalKernel(lambda t: np.ones_like(t))
    assert lipschitz_estimate(kern, 200) == 0.0


def test_lipschitz_finite_positive():
    for kern in (matern_zonal(2.5, 0.05), matern_zonal(2.5, 0.2),
                 wendland_zonal(3, 1, 0.05), wendland_zonal(3, 1, 0.2)):
        est = lipschitz_estimate(kernel=kern, grid=400)
        assert np.isfinite(est) and est > 0


def test_lipschitz_refinement_stability():
    kern = wendland_zonal(3, 1, 0.2)
    e1 = lipschitz_estimate(kern, 1000)
    e2 = lipschitz_estimate(kern, 2000)
    assert abs(e2 - e1) / e1 < 0.05


def test_lipschitz_rejects_small_grid():
    with pytest.raises(ValueError):
        lipschitz_estimate(matern_zonal(2.5, 0.2), 50)


def test_epsilon_for_fwhm():
    # solve for the scale achieving a 4-degree FWHM, then verify
    eps = epsilon_for_fwhm(lambda e: matern_zonal(2.5, e, convention="eq60"), 4.0)
    kern = matern_zonal(2.5, eps, convention="eq60")
    assert kern(np.cos(np.radians(2.0))) == pytest.approx(0.5, abs=1e-6)


def test_from_series_roundtrip():
    base = fourier_legendre(lambda t: 0.5 + 0.25 * t, N_max=8, Q=20)
    kern = ZonalKernel.from_series(base)
    t = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(kern(t), 0.5 + 0.25 * t, atol=1e-12)


def test_series_kernels_evaluate_through_their_certified_table():
    # the tikhonov field kernel reads the table of its series (whose
    # accuracy tests/test_legendre.py checks), bitwise the series at t = 1
    series = self_convolve(matern_zonal(2.5, 0.35, convention="eq60").series())
    kern = ZonalKernel.from_series(series)
    assert kern.table is not None and kern.table.nodes == 8192
    assert kern(1.0) == resynthesize(series, 1.0)
    t = np.linspace(-1.0, 1.0, 4001)
    assert kern(t).tobytes() == tabulate(series)(t).tobytes()
    # closed-form kernels have no table
    assert matern_zonal(2.5, 0.35).table is None
    assert wendland_zonal(3, 1, 0.3).table is None


def test_sobolev_beta_2_keeps_clenshaw_bytes():
    # no table is certified within the cap, so the kernel is bitwise the
    # resynthesis of its peak-normalised series, as before tables
    kern = sobolev_green_zonal(2.0)
    assert kern.table is None
    series = green_series(2.0, tol=1e-8)
    series = LegendreSeries(series.coeffs / resynthesize(series, 1.0))
    t = np.linspace(-1.0, 1.0, 1001)
    assert kern(t).tobytes() == resynthesize(series, t).tobytes()


def test_table_knot_gram_is_bitwise_symmetric():
    kern = ZonalKernel.from_series(
        self_convolve(matern_zonal(2.5, 0.35, convention="eq60").series()))
    assert kern.table is not None
    K = knot_gram(kern, fibonacci_lattice(300))
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()
    assert np.all(K.diagonal() == kern(1.0))
