import math

import numpy as np
import pytest

from sphsplines.gram import GramMatrix, spectral_norm
from sphsplines.prox import (
    KL,
    L1,
    CostModel,
    ExactMatch,
    L2Ball,
    LeastSquares,
    prox_conjugate,
    prox_cost,
    soft_threshold,
)


def all_models(y, rho=1.5):
    return [
        ExactMatch(y),
        L1(y),
        L2Ball(y, rho),
        KL(np.abs(y)),
        LeastSquares(y),
    ]


# ------------------------------------------------------------ soft threshold


def test_soft_threshold_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
    z = np.array([0.3, -2.0, 1.0])
    np.testing.assert_array_equal(soft_threshold(z, 0.0), z)
    # the bits of the textbook formula, and the input left as it was
    z = np.random.default_rng(5).standard_normal(50)
    copy = z.copy()
    want = np.sign(z) * np.maximum(np.abs(z) - 0.4, 0.0)
    assert soft_threshold(z, 0.4).tobytes() == want.tobytes()
    assert z.tobytes() == copy.tobytes()


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)


def test_soft_threshold_l1_shrinkage():
    # every surviving entry shrinks by exactly theta
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(12) * 3.0
        theta = rng.uniform(0.0, 2.0)
        out = soft_threshold(z, theta)
        survivors = np.abs(z) > theta
        assert np.abs(out).sum() <= np.abs(z).sum() - theta * survivors.sum() + 1e-12
        np.testing.assert_allclose(
            np.abs(out[survivors]), np.abs(z[survivors]) - theta, atol=1e-12
        )


# -------------------------------------------------------------- prox values


def test_prox_exact_match_returns_anchor():
    y = np.array([1.0, -2.0, 0.5])
    out = prox_cost(ExactMatch(y), 3.7, np.array([9.0, 9.0, 9.0]))
    np.testing.assert_array_equal(out, y)


def test_prox_l2ball_interior_identity():
    y = np.zeros(3)
    z = np.array([0.1, 0.2, -0.1])
    out = prox_cost(L2Ball(y, 1.0), 2.0, z)
    np.testing.assert_array_equal(out, z)


def test_prox_l2ball_projects_to_boundary():
    y = np.array([1.0, 0.0])
    z = np.array([4.0, 4.0])
    rho = 0.5
    out = prox_cost(L2Ball(y, rho), 1.0, z)
    assert abs(np.linalg.norm(out - y) - rho) < 1e-12
    # projection stays on the segment from y to z
    d = (z - y) / np.linalg.norm(z - y)
    np.testing.assert_allclose(out, y + rho * d, atol=1e-12)


def test_prox_kl_fixed_point_and_degenerate():
    out = prox_cost(KL(np.array([1.0])), 1.0, np.array([1.0]))
    np.testing.assert_allclose(out, [1.0], atol=1e-15)
    out = prox_cost(KL(np.array([0.0])), 1.0, np.array([2.0]))
    np.testing.assert_allclose(out, [1.0], atol=1e-15)  # max(z - tau, 0)


def test_prox_kl_nonnegative_output():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 5.0, size=30)
    y[::4] = 0.0
    for tau in (0.1, 1.0, 10.0):
        z = rng.standard_normal(30) * 10.0
        assert np.all(prox_cost(KL(y), tau, z) >= 0.0)


def test_prox_least_squares_formula():
    y = np.array([2.0, -1.0])
    z = np.array([0.0, 0.0])
    np.testing.assert_allclose(
        prox_cost(LeastSquares(y), 0.5, z), (z + 2 * 0.5 * y) / 2.0
    )


def test_prox_rejects_bad_tau_and_shape():
    y = np.zeros(3)
    with pytest.raises(ValueError):
        prox_cost(L1(y), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        prox_cost(L1(y), 1.0, np.zeros(4))


def test_kl_rejects_negative_counts():
    with pytest.raises(ValueError):
        KL(np.array([1.0, -0.5]))


def test_l2ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        L2Ball(np.zeros(2), 0.0)


# --------------------------------------------------- brute-force optimality


def scalar_objective(model, x, tau, z):
    # exact (tolerance-free) scalar objective for the grid oracle
    y = model.y[0]
    if isinstance(model, ExactMatch):
        f = 0.0 if x == y else np.inf
    elif isinstance(model, L1):
        f = abs(x - y)
    elif isinstance(model, L2Ball):
        f = 0.0 if abs(x - y) <= model.radius else np.inf
    elif isinstance(model, KL):
        if x < 0 or (x == 0 and y > 0):
            f = np.inf
        else:
            f = (y * math.log(y / x) - y + x) if y > 0 else x
    else:
        f = (y - x) ** 2
    return f + (x - z) ** 2 / (2.0 * tau)


def test_prox_beats_grid_search():
    rng = np.random.default_rng(42)
    for model_idx in range(5):
        for _ in range(10):
            y = rng.standard_normal(1) * 2.0
            model = all_models(y, rho=rng.uniform(0.5, 2.0))[model_idx]
            tau = rng.uniform(0.05, 3.0)
            z = rng.standard_normal(1)[0] * 3.0
            out = prox_cost(model, tau, np.array([z]))[0]
            obj_out = scalar_objective(model, out, tau, z)
            grid = out + np.arange(-1.0, 1.0 + 1e-9, 1e-3)
            best = min(scalar_objective(model, x, tau, z) for x in grid)
            assert obj_out - best <= 1e-9


# ----------------------------------------------------------- conjugate prox


def test_prox_conjugate_exact_match():
    y = np.array([1.0, 2.0])
    v = np.array([-3.0, 0.5])
    np.testing.assert_allclose(
        prox_conjugate(ExactMatch(y), 2.5, v), v - 2.5 * y, atol=1e-14
    )


def test_moreau_identity_all_models():
    # prox_F(z) + prox_{F*}(z) = z at sigma = 1
    rng = np.random.default_rng(3)
    for model in all_models(rng.standard_normal(7)):
        for _ in range(100):
            z = rng.standard_normal(7) * 5.0
            lhs = prox_cost(model, 1.0, z) + prox_conjugate(model, 1.0, z)
            np.testing.assert_allclose(lhs, z, atol=1e-12)


def test_conjugate_prox_binding_is_bitwise_moreau():
    # each model's binding, with its sigma-constants computed once, gives
    # the bits of Moreau's formula through the checked primal prox
    rng = np.random.default_rng(4)
    for model in all_models(rng.standard_normal(9) * 3.0):
        for sigma in (0.03, 0.7, 1.0, 12.5):
            v = rng.standard_normal(9) * 5.0
            want = v - sigma * prox_cost(model, 1.0 / sigma, v / sigma)
            bound = model.conjugate_prox(sigma)
            assert bound(v).tobytes() == want.tobytes()
            assert prox_conjugate(model, sigma, v).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="shape"):
        prox_conjugate(L1(np.zeros(3)), 1.0, np.zeros(4))
    # KL's binding goes through its checked primal prox
    with pytest.raises(ValueError, match="finite"):
        prox_conjugate(KL(np.ones(2)), 1.0, np.array([0.5, np.nan]))


def test_l2ball_conjugate_large_radius_limit():
    # far outside a sigma*rho-ball, the L2Ball dual acts like the ExactMatch
    # dual v - sigma*y up to a relative rho/||v|| correction
    rng = np.random.default_rng(9)
    y = rng.standard_normal(4)
    sigma = 1.3
    big = L2Ball(y, 1e6)
    exact = ExactMatch(y)
    v = rng.standard_normal(4) * 1e9
    a = prox_conjugate(big, sigma, v)
    b = prox_conjugate(exact, sigma, v)
    assert np.linalg.norm(a - b) <= 3e-3 * np.linalg.norm(b)


# ----------------------------------------------------------- nonexpansive


def test_prox_nonexpansive():
    rng = np.random.default_rng(11)
    for model in all_models(rng.standard_normal(6)):
        for tau in (0.2, 1.0, 5.0):
            for _ in range(20):
                z1 = rng.standard_normal(6) * 4.0
                z2 = rng.standard_normal(6) * 4.0
                d_out = np.linalg.norm(
                    prox_cost(model, tau, z1) - prox_cost(model, tau, z2)
                )
                assert d_out <= np.linalg.norm(z1 - z2) + 1e-12


# -------------------------------------------------------------- cost values


def test_cost_values():
    y = np.array([1.0, 2.0])
    assert ExactMatch(y).value(y) == 0.0
    assert ExactMatch(y).value(y + 1.0) == np.inf
    assert L1(y).value(np.array([2.0, 0.0])) == 3.0
    ball = L2Ball(y, 1.0)
    assert ball.value(y + np.array([0.5, 0.0])) == 0.0
    assert ball.value(y + np.array([2.0, 0.0])) == np.inf
    assert LeastSquares(y).value(np.array([0.0, 0.0])) == 5.0
    kl = KL(np.array([1.0, 0.0]))
    assert kl.value(np.array([1.0, 3.0])) == 3.0  # y=0 term contributes z
    assert kl.value(np.array([0.0, 1.0])) == np.inf
    assert kl.finite_value(np.array([1.0, 3.0])) == 3.0
    assert ball.finite_value(y + np.array([9.0, 0.0])) == 0.0


def test_cost_model_validation():
    with pytest.raises(ValueError):
        L1(np.array([np.nan]))
    with pytest.raises(ValueError):
        L1(np.zeros((2, 2)))


# ------------------------------------------------------------------ gradient


def test_grad_zero_at_interpolation():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((5, 8))
    x0 = rng.standard_normal(8)
    model = LeastSquares(A @ x0)
    g = A.T @ model.grad(A @ x0)
    np.testing.assert_array_equal(g, np.zeros(8))
    ref = np.linalg.svd(A, compute_uv=False)[0]
    lip = model.grad_lipschitz * spectral_norm(GramMatrix(A)) ** 2
    np.testing.assert_allclose(lip, 2.0 * ref**2, rtol=1e-8)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    model = LeastSquares(y)
    G = GramMatrix(A)
    x = rng.standard_normal(8)
    g = G.rmatvec(model.grad(G.matvec(x)))

    def energy(v):
        return model.value(A @ v)

    h = 1e-6
    fd = np.empty(8)
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        fd[i] = (energy(x + e) - energy(x - e)) / (2.0 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-5)


def test_grad_rejects_nonsmooth_models():
    y = np.abs(np.random.default_rng(1).standard_normal(4))
    for model in (ExactMatch(y), L1(y), L2Ball(y, 1.0), KL(y)):
        # only a smooth model declares a gradient and its Lipschitz constant
        assert not hasattr(model, "grad")
        assert not hasattr(model, "grad_lipschitz")
