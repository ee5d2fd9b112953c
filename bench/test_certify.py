"""Tests of the benchmark's reference and certificate code.

Run from the repository root:  python3 -m pytest -q bench/test_certify.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import certify  # noqa: E402
from sphsplines import (  # noqa: E402
    DiracFunctional,
    LeastSquares,
    PatchFunctional,
    SolverConfig,
    apgd_solve,
    assemble_gram,
    equal_angle_patch_grid,
    fibonacci_lattice,
    knot_gram,
    matern_zonal,
    self_convolve,
    wendland_zonal,
)


def _dirs(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_reference_kernels_match_library():
    t = np.linspace(-1.0, 1.0, 2001)
    assert np.allclose(certify.matern25_eq60(0.25)(t),
                       matern_zonal(2.5, 0.25, convention="eq60")(t),
                       rtol=1e-13, atol=1e-15)
    # factored vs expanded polynomial: cancellation near the support edge
    assert np.allclose(certify.wendland31(0.3)(t), wendland_zonal(3, 1, 0.3)(t),
                       rtol=1e-13, atol=1e-14)


def test_reference_gram_matches_assembly():
    rng = np.random.default_rng(0)
    knots = fibonacci_lattice(60)
    dirs = _dirs(rng, 15)
    kern = matern_zonal(2.5, 0.25, convention="eq60")
    G = assemble_gram(kern, [DiracFunctional(d) for d in dirs], knots).toarray()
    assert np.allclose(certify.dirac_gram(certify.matern25_eq60(0.25), dirs,
                                          knots.points), G, rtol=1e-13, atol=1e-12)

    patches = equal_angle_patch_grid(6, 12)
    G = assemble_gram(wendland_zonal(3, 1, 0.3),
                      [PatchFunctional(b, 4) for b in patches], knots).toarray()
    bounds = [(b.lon_min, b.lon_max, b.lat_min, b.lat_max) for b in patches]
    ref = certify.patch_gram(certify.wendland31(0.3), bounds, knots.points, 4)
    assert np.allclose(ref, G, rtol=1e-12, atol=1e-12)


def test_clenshaw_series_gram_matches_knot_gram():
    series = self_convolve(matern_zonal(2.5, 0.35, convention="eq60").series())
    coeffs = certify.legendre_coefficients(certify.matern25_eq60(0.35)) ** 2
    assert np.allclose(coeffs, series.coeffs, rtol=1e-12, atol=1e-15 * coeffs[0])
    pts = _dirs(np.random.default_rng(1), 40)
    K = certify.series_gram(coeffs, pts)
    assert np.allclose(K, knot_gram(series, pts), rtol=1e-11, atol=1e-13)


def test_lp_optimum_is_sparse_and_feasible():
    rng = np.random.default_rng(2)
    knots = fibonacci_lattice(40).points
    L = 6
    G = certify.dirac_gram(certify.matern25_eq60(0.25), _dirs(rng, L), knots)
    y = rng.standard_normal(L)
    p_star, x = certify.lp_optimum(G, y)
    active = np.sum(np.abs(x) > 1e-4 * np.abs(x).max())
    assert active <= L
    assert np.allclose(G @ x, y, atol=1e-9)
    assert p_star == pytest.approx(np.abs(x).sum(), rel=1e-9)


@pytest.mark.parametrize("cost", ["ls", "kl"])
def test_dual_bound_never_exceeds_primal(cost):
    rng = np.random.default_rng(3)
    for _ in range(20):
        L, N = rng.integers(5, 40), rng.integers(3, 30)
        G = rng.uniform(0.0, 1.0, (L, N)) * (rng.uniform(size=(L, N)) < 0.6)
        x = rng.uniform(0.0, 2.0, N) * (rng.uniform(size=N) < 0.5)
        if cost == "kl":
            x += 0.05  # keep every rate positive so P(x) is finite
            y = rng.poisson(G @ x).astype(float)
        else:
            y = rng.standard_normal(L)
        lam = rng.uniform(0.01, 1.0) * np.abs(G.T @ (y if cost == "ls" else 1 - y)).max()
        gap, primal, dual = certify.duality_gap(G, y, lam, x, cost)
        assert np.isfinite(primal)
        assert dual <= primal + 1e-12 * abs(primal)
        assert gap >= -1e-12


def test_kl_gap_is_infinite_off_the_domain():
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    gap, primal, _ = certify.duality_gap(G, np.array([3.0, 0.0]), 0.1,
                                         np.array([-1.0, 1.0]), "kl")
    assert gap == np.inf and primal == np.inf


def test_ls_gap_is_tight_on_a_converged_solve():
    rng = np.random.default_rng(4)
    knots = fibonacci_lattice(80)
    dirs = _dirs(rng, 300)
    G = certify.dirac_gram(certify.wendland31(0.4), dirs, knots.points)
    y = G @ (rng.uniform(-1, 1, 80) * (rng.uniform(size=80) < 0.1))
    y += 0.01 * rng.standard_normal(y.size)
    lam = 0.05 * np.abs(G.T @ y).max()
    res = apgd_solve(G, LeastSquares(y), SolverConfig(lam, eps_stop=1e-8,
                                                      max_iter=200000))
    gap, _, _ = certify.duality_gap(G, y, lam, res.x, "ls")
    assert 0.0 <= gap < 1e-6


def test_tikhonov_gap_matches_direct_excess():
    rng = np.random.default_rng(5)
    pts = _dirs(rng, 30)
    K = certify.dirac_gram(certify.matern25_eq60(0.35), pts, pts)
    y, mu = rng.standard_normal(30), 1e-2
    x_star = np.linalg.solve(K + mu * np.eye(30), y)
    x = x_star + 1e-3 * rng.standard_normal(30)

    def J(v):
        return np.sum((K @ v - y) ** 2) + mu * v @ K @ v

    gap, residual = certify.tikhonov_gap(K, y, mu, x)
    assert gap == pytest.approx((J(x) - J(x_star)) / J(x), rel=1e-6)
    assert certify.tikhonov_gap(K, y, mu, x_star)[1] < 1e-12
    assert residual > 1e-6
