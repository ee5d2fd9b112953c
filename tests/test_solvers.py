import hashlib

import numpy as np
import pytest

from sphsplines import solvers
from sphsplines.gram import GramMatrix, knot_gram, spectral_norm
from sphsplines.kernels import ZonalKernel, matern_zonal
from sphsplines.prox import (
    KL,
    L1,
    ExactMatch,
    L2Ball,
    LeastSquares,
    prox_conjugate,
    soft_threshold,
)
from sphsplines.solvers import (
    SolverConfig,
    SolverResult,
    apgd_solve,
    pds_solve,
    rkhs_project,
    tikhonov_solve,
)
from sphsplines.sphere import KnotSet, fibonacci_lattice
from sphsplines.spline import SplineField, evaluate


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(-1.0)
    with pytest.raises(ValueError):
        SolverConfig(1.0, eps_stop=0.0)
    with pytest.raises(ValueError):
        SolverConfig(1.0, max_iter=0)
    # the run config's rules: a bool or a string is never a number, and a
    # float is never an integer
    for key, value in (("max_iter", 2.9), ("max_iter", True), ("max_iter", "50"),
                       ("eps_stop", "1e-4"), ("eps_stop", True), ("lam", True),
                       ("lam", "0.1")):
        with pytest.raises(ValueError, match=key):
            SolverConfig(**dict({"lam": 1.0}, **{key: value}))
    # numpy scalars are numbers
    cfg = SolverConfig(np.float32(0.5), eps_stop=np.float64(1e-4), max_iter=np.int64(10))
    assert (cfg.lam, cfg.eps_stop, cfg.max_iter) == (0.5, 1e-4, 10)
    assert type(cfg.max_iter) is int


def test_auto_steps_sit_on_convergence_boundary():
    # the steps a real solve takes: the result reports tau and sigma, the
    # model's conjugate prox is bound once at sigma and applied once per
    # iteration, and the second iterate is the one those steps give
    # no float within COUPLING_ULPS above the second norm couples exactly,
    # so its steps fall just inside the boundary
    for A, coupled in ((np.array([[3.0, 1.0], [0.0, 2.0]]), True),
                       (np.array([[31.994131434977465]]), False)):
        model = LeastSquares(np.ones(A.shape[0]))
        bind, bound, applied = model.conjugate_prox, [], []

        def spy(sigma):
            bound.append(sigma)
            prox = bind(sigma)

            def counted(v):
                applied.append(sigma)
                return prox(v)
            return counted

        model.conjugate_prox = spy
        G = GramMatrix(A)
        result = pds_solve(G, model, SolverConfig(1.0, max_iter=3))
        norm = spectral_norm(G)
        tau, sigma = result.tau, result.sigma
        assert result.iterations == 3 and bound == [sigma] and applied == [sigma] * 3
        # with lambda = 1 the soft-threshold level is tau itself
        z1 = prox_conjugate(model, sigma, np.zeros(A.shape[0]))
        x2 = pds_solve(G, model, SolverConfig(1.0, max_iter=2)).x
        np.testing.assert_allclose(x2, soft_threshold(-tau * (A.T @ z1), tau),
                                   rtol=1e-15, atol=0)
        assert tau == sigma == 1.0 / norm
        product = tau * sigma * norm**2
        assert (product == 1.0) if coupled else (product < 1.0)


def test_result_invariants():
    with pytest.raises(ValueError):
        SolverResult(np.zeros(2), 3, [1.0, np.nan], True, 0.0)
    with pytest.raises(ValueError):
        SolverResult(np.zeros(2), 3, [1.0, -np.inf], True, 0.0)
    # +inf is legitimate: divergence costs are infinite at infeasible iterates
    res = SolverResult(np.zeros(2), 3, [np.inf, 1.0], True, 0.0)
    assert res.objective_trace[0] == np.inf


# ---------------------------------------------------------------------- pds


def test_pds_scalar_ball():
    # min |x| s.t. |1 - x| <= 0.1  ->  x = 0.9
    G = GramMatrix(np.array([[1.0]]))
    res = pds_solve(G, L2Ball(np.array([1.0]), 0.1), SolverConfig(1.0))
    assert res.converged
    assert abs(res.x[0] - 0.9) < 1e-4


def test_pds_minimum_l1_interpolation():
    # x non-unique but the minimal ell-1 value 2 is
    G = GramMatrix(np.array([[1.0, 1.0]]))
    res = pds_solve(G, ExactMatch(np.array([2.0])), SolverConfig(1.0))
    assert res.converged
    assert abs(np.abs(res.x).sum() - 2.0) < 1e-4


def test_pds_zero_data_stops_immediately():
    G = GramMatrix(np.array([[1.0]]))
    res = pds_solve(G, L2Ball(np.array([0.0]), 0.5), SolverConfig(1.0))
    assert res.iterations == 1 and res.converged
    np.testing.assert_array_equal(res.x, [0.0])


def test_pds_rejects_mismatched_measurements():
    G = GramMatrix(np.eye(3))
    with pytest.raises(ValueError, match="rows"):
        pds_solve(G, ExactMatch(np.zeros(2)), SolverConfig(1.0))


def test_pds_exact_match_interpolates():
    rng = np.random.default_rng(100)
    A = rng.standard_normal((10, 200))
    y = rng.standard_normal(10)
    res = pds_solve(GramMatrix(A), ExactMatch(y),
                    SolverConfig(1.0, eps_stop=1e-7, max_iter=100000))
    assert res.converged
    assert np.linalg.norm(A @ res.x - y) <= 1e-6 * np.linalg.norm(y)


def test_pds_representer_sparsity_bound():
    # with L < N interpolation constraints the minimiser needs at most L
    # active coefficients
    cases = [(10, 100), (10, 101), (10, 104), (25, 100), (25, 103)]
    for L, seed in cases:
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((L, 200))
        y = rng.standard_normal(L)
        res = pds_solve(GramMatrix(A), ExactMatch(y),
                        SolverConfig(1.0, eps_stop=1e-7, max_iter=100000))
        assert res.converged
        active = np.count_nonzero(np.abs(res.x) > 1e-4 * np.abs(res.x).max())
        assert active <= L


def test_pds_trace_finite_and_iterations_counted():
    G = GramMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    res = pds_solve(G, LeastSquares(np.array([1.0, -1.0])), SolverConfig(0.3))
    assert res.objective_trace.size == res.iterations
    assert np.all(np.isfinite(res.objective_trace))


# --------------------------------------------------------------------- apgd


def test_apgd_scalar_lasso():
    # min (x-1)^2 + lam*|x|
    G = GramMatrix(np.array([[1.0]]))
    model = LeastSquares(np.array([1.0]))
    res = apgd_solve(G, model, SolverConfig(1.0, eps_stop=1e-9))
    assert abs(res.x[0] - 0.5) < 1e-6
    res = apgd_solve(G, model, SolverConfig(2.5, eps_stop=1e-9))
    assert res.x[0] == 0.0  # subgradient condition kills the coefficient
    res = apgd_solve(G, model, SolverConfig(0.0, eps_stop=1e-9))
    np.testing.assert_allclose(res.x, [1.0], atol=1e-6)


def test_apgd_rejects_nonsmooth_model():
    G = GramMatrix(np.eye(2))
    for model in (ExactMatch(np.ones(2)), L1(np.ones(2)), L2Ball(np.ones(2), 1.0),
                  KL(np.ones(2))):
        with pytest.raises(ValueError, match="pds"):
            apgd_solve(G, model, SolverConfig(1.0))


def test_apgd_progress_over_second_half():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((20, 50))
    y = rng.standard_normal(20)
    lam = 0.05 * np.abs(A.T @ y).max()
    res = apgd_solve(GramMatrix(A), LeastSquares(y),
                     SolverConfig(lam, eps_stop=1e-8, max_iter=50000))
    trace = res.objective_trace
    n = trace.size
    assert trace[-1] <= trace[max(0, n // 2 - 1)] + 1e-12


def test_apgd_takes_the_norm_once(monkeypatch):
    calls = []

    def counted(G, *args, **kwargs):
        calls.append(G)
        return spectral_norm(G, *args, **kwargs)

    monkeypatch.setattr(solvers, "spectral_norm", counted)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 40))
    y = rng.standard_normal(20)
    res = apgd_solve(GramMatrix(A), LeastSquares(y),
                     SolverConfig(0.1 * np.abs(A.T @ y).max(), eps_stop=1e-8))
    assert res.iterations > 10
    assert len(calls) == 1


def test_pds_apgd_agree_on_lasso():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 60))
        y = 2.0 * rng.standard_normal(30)
        lam = 0.1 * np.abs(A.T @ y).max()
        G = GramMatrix(A)
        model = LeastSquares(y)
        cfg = SolverConfig(lam, eps_stop=1e-9, max_iter=200000)
        o1 = pds_solve(G, model, cfg).objective_trace[-1]
        o2 = apgd_solve(G, model, cfg).objective_trace[-1]
        assert abs(o1 - o2) <= 1e-6 * abs(o1)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def test_solver_iterates_are_pinned():
    # 300 iterations each, run to the cap; a change to the step rule, the
    # momentum, the spectral norm or the order of the arithmetic moves these
    # bytes.  Each G is dense, so its products and norm run through BLAS and
    # LAPACK; recorded at one BLAS thread, and read the same at two
    rng = np.random.default_rng(2024)
    x_true = np.zeros(30)
    x_true[[3, 11, 25]] = [1.5, -2.0, 0.7]
    A = rng.standard_normal((12, 30))
    B = rng.uniform(0.0, 1.0, (20, 30))
    counts = rng.poisson(10.0 * B @ np.abs(x_true)).astype(float)
    C = rng.standard_normal((20, 40))
    y = C[:, :30] @ x_true + 0.1 * rng.standard_normal(20)
    runs = {
        "pds-exact": pds_solve(GramMatrix(A), ExactMatch(A @ x_true),
                               SolverConfig(0.1, eps_stop=1e-15, max_iter=300)),
        "pds-kl": pds_solve(GramMatrix(B), KL(counts),
                            SolverConfig(0.5, eps_stop=1e-15, max_iter=300)),
        "apgd-ls": apgd_solve(GramMatrix(C), LeastSquares(y),
                              SolverConfig(0.5, eps_stop=1e-15, max_iter=300)),
    }
    pinned = {
        "pds-exact": ("03999cffd3c32d0e65fe55e1a57fd87175f9eb5cf3d84f08962979d83321d11c",
                      "e81bcb6b0aa37b2d6d07a74989900b28b79f226a99151ea767b55b6b4745c683"),
        "pds-kl": ("796112b27d5da441b27e8b388ade0f6c4298d5c61744df42c69a4ca099f7e94d",
                   "d3a3d4d5e95324b3a2e8ea705f9b640be8c61aeb1889038f41606b26585f8986"),
        "apgd-ls": ("a71fdfe1a539e83ebd1776c3ec473b5914e69301f89c15ed74bf8704890ccbf7",
                    "c17a21c65a85f4362a75d99ca94e63857891c9bef5daf88d1408fd5ad20148e3"),
    }
    for name, res in runs.items():
        assert res.iterations == 300, name
        assert (_sha256(res.x), _sha256(res.objective_trace)) == pinned[name], name


# ----------------------------------------------------------------- tikhonov


def test_tikhonov_limits():
    y = np.array([1.0, -2.0, 0.5])
    x = tikhonov_solve(np.eye(3), y, 1e-12).x
    np.testing.assert_allclose(x, y, rtol=1e-9)
    x = tikhonov_solve(np.eye(3), y, 1e12).x
    assert np.linalg.norm(x) < 1e-11


def test_tikhonov_two_by_two_exact():
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = tikhonov_solve(K, np.array([1.0, 0.0]), 1.0).x
    np.testing.assert_allclose(x, [3.0 / 8.0, -1.0 / 8.0], atol=1e-10)


def test_tikhonov_result_is_the_functional_and_system_residual():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    K, y, mu = A @ A.T, rng.standard_normal(6), 0.1
    res = tikhonov_solve(K, y, mu)
    x = res.x
    assert res.iterations == 1 and res.converged
    functional = np.linalg.norm(K @ x - y) ** 2 + mu * x @ K @ x
    np.testing.assert_allclose(res.objective_trace, [functional], rtol=1e-12)
    system = np.linalg.norm((K + mu * np.eye(6)) @ x - y) / np.linalg.norm(y)
    assert res.primal_residual < 1e-12
    assert res.primal_residual == pytest.approx(system, abs=1e-14)


def test_tikhonov_validation():
    with pytest.raises(ValueError):
        tikhonov_solve(np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        tikhonov_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="positive definite"):
        # symmetric K with eigenvalues 3 and -1: K + 0.5 I is indefinite
        tikhonov_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), 0.5)


# --------------------------------------------------------------------- rkhs


def test_rkhs_reproduces_lattice_spline():
    kern = matern_zonal(2.5, 0.2)
    knots = fibonacci_lattice(100)
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(100)
    f0 = SplineField(kern, knots, c0)
    proj = rkhs_project(kern, knots, evaluate(f0, knots.points))
    err = np.abs(proj.coeffs - c0).max() / np.abs(c0).max()
    assert err < 1e-8


def test_rkhs_single_knot_scales_kernel():
    kern = matern_zonal(2.5, 0.3)
    knots = KnotSet(np.array([[0.0, 0.0, 1.0]]))
    proj = rkhs_project(kern, knots, np.array([2.5]))
    targets = fibonacci_lattice(20).points
    np.testing.assert_allclose(
        evaluate(proj, targets), 2.5 * kern(targets @ knots.points[0]), atol=1e-12
    )


def test_rkhs_projection_error_decays():
    # sup error against a fixed off-lattice field shrinks as knots refine
    kern = matern_zonal(2.5, 0.2)
    rng = np.random.default_rng(0)
    off_lattice = fibonacci_lattice(10).points[:, [1, 2, 0]]
    h = SplineField(kern, off_lattice, rng.standard_normal(10))
    probes = fibonacci_lattice(10000).points
    href = evaluate(h, probes)
    errs = []
    for N in (100, 400, 1600):
        lattice = fibonacci_lattice(N)
        proj = rkhs_project(kern, lattice, evaluate(h, lattice.points))
        errs.append(np.abs(evaluate(proj, probes) - href).max())
    assert errs[0] > errs[1] > errs[2]


def test_rkhs_sample_count_mismatch():
    with pytest.raises(ValueError):
        rkhs_project(matern_zonal(2.5, 0.2), fibonacci_lattice(5), np.ones(4))


def test_rkhs_project_names_the_knot_gram_when_its_cholesky_fails():
    # a constant kernel gives an all-ones K, whose second pivot is exactly 0
    constant = ZonalKernel(lambda t: np.ones_like(t))
    with pytest.raises(ValueError, match="knot Gram matrix is not positive definite"):
        rkhs_project(constant, fibonacci_lattice(3), np.ones(3))
