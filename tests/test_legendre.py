import tracemalloc

import numpy as np
import pytest

from sphsplines import legendre
from sphsplines.legendre import (
    LegendreSeries,
    fourier_legendre,
    gauss_legendre,
    legendre_all,
    resynthesize,
    tabulate,
)


def test_legendre_low_orders():
    P = legendre_all(2, 0.5)
    assert P[0] == 1.0
    assert P[1] == 0.5
    assert P[2] == pytest.approx(-0.125, abs=1e-15)


def test_legendre_unit_at_one():
    P = legendre_all(64, 1.0)
    np.testing.assert_allclose(P, 1.0, atol=1e-12)


def test_legendre_bounded():
    t = np.linspace(-1, 1, 1001)
    P = legendre_all(64, t)
    assert np.max(np.abs(P)) <= 1.0 + 1e-12


def test_legendre_rejects_out_of_range():
    for bad in (1.5, -1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite and in"):
            legendre_all(4, bad)
        with pytest.raises(ValueError, match="t must be finite and in"):
            legendre_all(4, np.array([0.5, bad, -0.25]))


def test_gauss_legendre_small_rules():
    r = gauss_legendre(1)
    np.testing.assert_allclose(r.nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(r.weights, [2.0], atol=1e-15)
    r = gauss_legendre(2)
    np.testing.assert_allclose(np.sort(r.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_exactness_degree5():
    r = gauss_legendre(3)
    assert np.sum(r.weights * r.nodes**4) == pytest.approx(2.0 / 5.0, abs=1e-15)


@pytest.mark.parametrize("Q", [1, 5, 40])
def test_gauss_legendre_weight_sum(Q):
    assert np.sum(gauss_legendre(Q).weights) == pytest.approx(2.0, abs=1e-12)


def test_gauss_legendre_rule_is_cached_and_read_only():
    r = gauss_legendre(12)
    assert gauss_legendre(12) is r
    assert not r.nodes.flags.writeable and not r.weights.flags.writeable
    with pytest.raises(ValueError):
        r.nodes[0] = 0.0


def test_orthogonality_via_quadrature():
    r = gauss_legendre(80)
    P = legendre_all(20, r.nodes)
    gram = (P * r.weights) @ P.T
    expected = np.diag(2.0 / (2.0 * np.arange(21) + 1.0))
    np.testing.assert_allclose(gram, expected, atol=1e-10)


def test_fourier_legendre_constant():
    series = fourier_legendre(lambda t: np.ones_like(t), N_max=16, Q=40)
    assert series.coeffs[0] == pytest.approx(4 * np.pi, rel=1e-14)
    np.testing.assert_allclose(series.coeffs[1:], 0.0, atol=1e-12)


def test_fourier_legendre_linear():
    series = fourier_legendre(lambda t: t, N_max=16, Q=40)
    assert series.coeffs[1] == pytest.approx(4 * np.pi / 3, rel=1e-14)
    np.testing.assert_allclose(np.delete(series.coeffs, 1), 0.0, atol=1e-12)


def test_fourier_legendre_aliasing_guard():
    # P_n(1 - c^2/2) * c has degree 2n+1 in the chord c, so a Q-node rule
    # is exact only for N_max < Q
    for N_max, Q in ((512, 256), (1000, 600), (600, 600)):
        with pytest.raises(ValueError):
            fourier_legendre(lambda t: t, N_max=N_max, Q=Q)
    fourier_legendre(lambda t: t, N_max=599, Q=600)


def test_resynthesize_single_modes():
    s0 = LegendreSeries(np.array([4 * np.pi]))
    for t in (-1.0, 0.3, 1.0):
        assert resynthesize(s0, t) == pytest.approx(1.0, abs=1e-14)
    s1 = LegendreSeries(np.array([0.0, 4 * np.pi / 3]))
    for t in (-0.7, 0.0, 0.5):
        assert resynthesize(s1, t) == pytest.approx(t, abs=1e-14)


def test_resynthesize_matches_direct_sum():
    coeffs = np.random.default_rng(2).standard_normal(301)
    t = np.linspace(-1.0, 1.0, 41)
    scale = (2.0 * np.arange(301) + 1.0) / (4.0 * np.pi)
    direct = (scale * coeffs) @ legendre_all(300, t)
    np.testing.assert_allclose(resynthesize(LegendreSeries(coeffs), t), direct,
                               rtol=0, atol=1e-12 * np.abs(direct).max())


def test_resynthesize_memory_does_not_grow_with_degree():
    # a degree-512 series on 1e5 points: no (n_max + 1) x t.size temporary
    series = LegendreSeries(1.0 / (1.0 + np.arange(513.0)) ** 4)
    t = np.linspace(-1.0, 1.0, 100_000)
    tracemalloc.start()
    try:
        resynthesize(series, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.nbytes


def test_resynthesize_memory_is_one_chunk_beyond_the_output():
    # a low-degree series on 1e5 and 1e6 points: beyond its output, the
    # range check and the recurrence take one chunk's work arrays, however
    # many points there are
    series = LegendreSeries(1.0 / (1.0 + np.arange(9.0)) ** 4)
    bound = 3 * legendre.RESYNTH_CHUNK * 8 + 65_536
    for size in (100_000, 1_000_000):
        t = np.linspace(-1.0, 1.0, size)
        tracemalloc.start()
        try:
            resynthesize(series, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - t.nbytes < bound


def test_resynthesize_rejects_out_of_range():
    for bad in (1.2, -1.2, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite and in"):
            resynthesize(LegendreSeries([1.0]), bad)
        with pytest.raises(ValueError, match="t must be finite and in"):
            resynthesize(LegendreSeries([1.0, 0.5]), np.array([[0.5, bad], [0.0, 1.0]]))


def _unchunked_resynthesize(series, t):
    # the Clenshaw loop over the whole of t at once, as it ran before chunking
    t_arr = np.asarray(t, dtype=float)
    a = (2.0 * np.arange(series.n_max + 1) + 1.0) / (4.0 * np.pi) * series.coeffs
    b1 = np.zeros_like(t_arr)
    b2 = np.zeros_like(t_arr)
    for n in range(series.n_max, -1, -1):
        b2 *= -(n + 1.0) / (n + 2.0)
        b2 += a[n]
        b2 += ((2.0 * n + 1.0) / (n + 1.0)) * t_arr * b1
        b1, b2 = b2, b1
    return b1


@pytest.mark.parametrize("chunk", [7, legendre.RESYNTH_CHUNK])
def test_chunked_resynthesis_is_bitwise_the_unchunked_loop(chunk, monkeypatch):
    monkeypatch.setattr(legendre, "RESYNTH_CHUNK", chunk)
    rng = np.random.default_rng(13)
    series = LegendreSeries(rng.standard_normal(65) / (1.0 + np.arange(65.0)))
    for size in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        t = rng.uniform(-1.0, 1.0, size)
        got = resynthesize(series, t)
        assert got.shape == t.shape
        assert got.tobytes() == _unchunked_resynthesize(series, t).tobytes()
    t = rng.uniform(-1.0, 1.0, (3, chunk + 2))
    got = resynthesize(series, t)
    assert got.shape == t.shape
    assert got.tobytes() == _unchunked_resynthesize(series, t).tobytes()
    got = resynthesize(series, 0.375)
    assert isinstance(got, float)
    assert got == float(_unchunked_resynthesize(series, 0.375))


def test_roundtrip_identity_on_bandlimited():
    # transform-then-resynthesize is the identity on polynomials of
    # degree <= N_max
    rng = np.random.default_rng(3)
    coefs = rng.normal(size=9)
    poly = np.polynomial.Polynomial(coefs)
    series = fourier_legendre(poly, N_max=16, Q=40)
    t = np.linspace(-1, 1, 501)
    np.testing.assert_allclose(resynthesize(series, t), poly(t), atol=1e-10)


def test_transform_matches_high_precision_oracle():
    # The degree-512 projection computed with the default Q = 600 rule
    # agrees with an independent Q = 4000 transform, for a globally
    # supported Matern kernel whose (1 - t)^{3/2} branch point at t = 1 a
    # rule in t cannot resolve, and for a compactly supported one.  The
    # projection itself still differs from the kernel by its truncation
    # tail, which no quadrature can remove.
    from sphsplines.kernels import matern_zonal, wendland_zonal

    t = np.linspace(-1, 1, 2001)
    for kern in (matern_zonal(2.5, 0.1), wendland_zonal(3, 1, 0.2)):
        series = fourier_legendre(kern, N_max=512, Q=600)
        oracle = fourier_legendre(kern, N_max=512, Q=4000)
        diff = np.abs(resynthesize(series, t) - resynthesize(oracle, t))
        assert diff.max() < 1e-8, repr(kern)


def test_coefficients_match_adaptive_quadrature():
    # spot-check individual coefficients against scipy's adaptive rule, for
    # globally supported kernels and a compactly supported one; the bound is
    # relative because the high-degree coefficients lie far below 1 (5e-10
    # to 4e-9 at n = 512), and the absolute floor sits above the oracle's
    # epsabs of 1e-13
    from oracles import legendre_coefficient_quad
    from sphsplines.kernels import matern_zonal, wendland_zonal

    for kern in (matern_zonal(2.5, 0.1),
                 matern_zonal(2.5, 0.1, convention="eq60"),
                 wendland_zonal(3, 1, 0.2)):
        series = fourier_legendre(kern, N_max=512, Q=600)
        for n in (0, 1, 17, 64, 256, 512):
            ref = legendre_coefficient_quad(kern, n, kern.support_tmin)
            err = series.coeffs[n] - ref
            assert abs(err) <= 1e-4 * abs(ref) + 1e-12, (repr(kern), n, ref, err)


def test_series_keeps_a_read_only_copy():
    # neither the caller's array nor a holder of the series can change it
    c = 1.0 / (1.0 + np.arange(9.0)) ** 2
    s = LegendreSeries(c)
    before = s(0.5)
    c[0] = 100.0
    assert s(0.5) == before
    with pytest.raises(ValueError, match="read-only"):
        s.coeffs[0] = 100.0
    assert s(0.5) == before


def test_streamed_transform_is_the_table_product_in_bounded_memory():
    # one dot per degree from the forward recurrence: the coefficients of
    # the (N_max + 1) x Q legendre_all product to rounding, with a peak of
    # a few arrays of Q where that table alone takes (N_max + 1) * Q * 8 B
    from sphsplines.kernels import matern_zonal

    kern = matern_zonal(2.5, 0.1)
    N_max, Q = 1024, 1100
    rule = gauss_legendre(Q)
    c, w = rule.mapped(0.0, 2.0)
    t = 1.0 - 0.5 * c * c
    table = 2.0 * np.pi * (legendre_all(N_max, t) @ (w * c * kern(t)))
    tracemalloc.start()
    try:
        coeffs = fourier_legendre(kern, N_max, Q).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(coeffs - table).max() <= 4e-15 * np.abs(table).max()
    assert peak < 16 * Q * 8 + 65_536  # the table is (N_max + 1) * Q * 8 B, 9 MB


def _table_series():
    # the self-convolved Matern kernel of the tikhonov runs, a random
    # decaying degree-64 series, a single mode and a constant
    from sphsplines.kernels import matern_zonal, self_convolve

    rng = np.random.default_rng(21)
    return {
        "self_convolved": self_convolve(matern_zonal(2.5, 0.35, convention="eq60").series()),
        "random": LegendreSeries(rng.standard_normal(65) / (1.0 + np.arange(65.0)) ** 5),
        "mode": LegendreSeries(np.array([0.0, 0.0, 0.0, 4.0])),
        "constant": LegendreSeries(np.array([2.5])),
    }


def _weights_of(series):
    return (2.0 * np.arange(series.n_max + 1) + 1.0) / (4.0 * np.pi) * series.coeffs


def _dense_t():
    # both ends, and t within 1e-16 .. 1e-12 of each
    ends = np.logspace(-16, -12, 41)
    return np.concatenate([np.linspace(-1.0, 1.0, 200_001), 1.0 - ends, -1.0 + ends,
                           [1.0, -1.0]])


def test_tikhonov_table_is_within_its_bound_of_resynthesis():
    # the self-convolved kernel of the tikhonov runs: its table errs from
    # Clenshaw by at most the recorded bound plus 4 eps sum |a_n|
    series = _table_series()["self_convolved"]
    table = tabulate(series)
    tol = 4.0 * np.finfo(float).eps * np.abs(_weights_of(series)).sum()
    assert table.nodes == 8192 and table.error_bound <= tol
    t = _dense_t()
    err = np.abs(table(t) - resynthesize(series, t))
    assert err.max() <= table.error_bound + tol, (err.max(), table.error_bound, tol)


@pytest.mark.parametrize("name", sorted(_table_series()))
def test_table_is_within_bound_and_rounding_of_resynthesis(name):
    # any series: M is the smallest power of two whose bound is within the
    # tolerance (halving h multiplies the bound by 16), and the table errs
    # by at most the bound, the tolerance, and the rounding of theta =
    # arccos(t) (a few ulps of pi) times |f'| <= sum_n n |a_n|
    series = _table_series()[name]
    table = tabulate(series)
    size = np.abs(_weights_of(series))
    tol = 4.0 * np.finfo(float).eps * size.sum()
    assert table.nodes & (table.nodes - 1) == 0
    assert table.error_bound <= tol
    assert table.nodes == 1 or 16.0 * table.error_bound > tol
    theta_rounding = 2.0 * np.pi * np.finfo(float).eps * (size * np.arange(size.size)).sum()
    t = _dense_t()
    err = np.abs(table(t) - resynthesize(series, t))
    assert err.max() <= table.error_bound + tol + theta_rounding, (err.max(), table.error_bound)


def test_table_at_one_is_bitwise_resynthesis():
    for series in _table_series().values():
        table = tabulate(series)
        assert isinstance(table(1.0), float)
        assert table(1.0) == resynthesize(series, 1.0)
        assert table(np.array([[1.0]])).tobytes() == np.array([[resynthesize(series, 1.0)]]).tobytes()


def test_table_lookup_is_bitwise_independent_of_chunking(monkeypatch):
    series = _table_series()["self_convolved"]
    table = tabulate(series)
    t = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 1001))
    whole = table(t)
    monkeypatch.setattr(legendre, "RESYNTH_CHUNK", 7)
    assert table(t).tobytes() == whole.tobytes()
    assert table(float(t[1, 2])) == whole[1, 2]


def test_table_lookup_memory_is_bounded_in_chunks():
    # 1e6 values: beyond its output and the range check, the lookup holds a
    # few chunks of work arrays, not arrays of the input's size
    table = tabulate(_table_series()["self_convolved"])
    t = np.linspace(-1.0, 1.0, 1_000_000)
    tracemalloc.start()
    try:
        table(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - t.nbytes < 6 * legendre.RESYNTH_CHUNK * 8 + 65_536


def test_table_rejects_out_of_range():
    table = tabulate(_table_series()["random"])
    for bad in (1.2, -1.2, np.nan, np.inf):
        with pytest.raises(ValueError, match="t must be finite and in"):
            table(bad)
        with pytest.raises(ValueError, match="t must be finite and in"):
            table(np.array([0.5, bad]))

