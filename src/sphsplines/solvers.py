"""Proximal solvers for the penalised problem min F(y, Gx) + lambda*||x||_1,
plus the quadratically penalised baseline and RKHS projection.

The primal-dual iteration handles any proximable cost; the accelerated
gradient variant requires a cost model with a gradient and trades dual
variables for momentum.  Both iterate on a `GramMatrix` (a dense or sparse
system matrix is wrapped in one on entry), start from zero, and report a
per-iteration objective trace of the finite part of the cost (an indicator
cost, exact or l2ball, contributes 0 at every iterate, feasible or not).
Their only settings are those of `SolverConfig`: the step sizes follow from
||G||_2 and the cost model.
"""

import math

import numpy as np

from .gram import GramMatrix, knot_gram, spectral_norm
from .prox import soft_threshold
from .sphere import check_integer, check_number
from .spline import SplineField

# relative-stop rule is undefined at x = 0; below this norm an absolute
# test ||x_n - x_{n-1}|| <= eps_stop is used instead
ZERO_NORM_FLOOR = 1e-30


# momentum (n - 1)/(n + a) of the accelerated iteration; any a > 2 gives
# convergence of the iterates (Chambolle & Dossal, JOTA 2015)
APGD_THETA = 75.0


class SolverConfig:
    """The settings of a proximal solve.

    Parameters
    ----------
    lam : real number >= 0
        Regularisation weight on ||x||_1.
    eps_stop : real number > 0
        Relative change threshold on successive primal iterates.
    max_iter : integer >= 1
        Iteration cap.

    Checked by `check_number` and `check_integer`, the run config's rules: a
    bad value raises ValueError naming it.
    """

    def __init__(self, lam, eps_stop=1e-4, max_iter=20000):
        self.lam = check_number(lam, "lam", lambda v: v >= 0, " >= 0")
        self.eps_stop = check_number(eps_stop, "eps_stop", lambda v: v > 0, " > 0")
        self.max_iter = check_integer(max_iter, "max_iter", 1)

    def __repr__(self):
        return "SolverConfig(lam=%g, eps_stop=%g, max_iter=%d)" % (
            self.lam, self.eps_stop, self.max_iter,
        )


class SolverResult:
    """Solution vector plus run diagnostics.

    ``primal_residual`` is, for `pds_solve`, the norm of the last primal
    step ||x_n - x_{n-1}||; for `apgd_solve`, that of the last extrapolated
    iterate; for `tikhonov_solve`, the relative system residual
    ||(K + mu*I) x - y|| / ||y||.  ``tau`` and ``sigma`` are the primal and
    dual steps the solve took: both for `pds_solve`, tau alone for
    `apgd_solve`, and neither (None) for `tikhonov_solve`.
    """

    def __init__(self, x, iterations, objective_trace, converged, primal_residual,
                 tau=None, sigma=None):
        trace = np.asarray(objective_trace, dtype=float)
        # +inf is legitimate early on (divergence costs at infeasible iterates)
        if np.any(np.isnan(trace)) or np.any(trace == -np.inf):
            raise ValueError("objective trace must not contain NaN or -inf")
        self.x = np.asarray(x, dtype=float)
        self.iterations = int(iterations)
        self.objective_trace = trace
        self.converged = bool(converged)
        self.primal_residual = float(primal_residual)
        self.tau, self.sigma = tau, sigma

    def __repr__(self):
        return "SolverResult(n=%d, converged=%s, objective=%s)" % (
            self.iterations,
            self.converged,
            self.objective_trace[-1] if self.objective_trace.size else "n/a",
        )


def _system(G, model):
    """G as a `GramMatrix`, checked to have one row per measurement."""
    G = G if isinstance(G, GramMatrix) else GramMatrix(G)
    if model.y.size != G.shape[0]:
        raise ValueError("measurement length %d != Gram rows %d"
                         % (model.y.size, G.shape[0]))
    return G


def _norm(v):
    """||v||_2 of a 1-d float array, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


def _stalled(delta, prev_norm, eps):
    if prev_norm < ZERO_NORM_FLOOR:
        return delta <= eps
    return delta <= eps * prev_norm


def pds_solve(G, model, config):
    """Primal-dual splitting for min F(y, Gx) + lambda*||x||_1.

    Per iteration: the primal step soft-thresholds a dual-adjusted gradient
    step, the dual step applies the conjugate prox at the extrapolated
    primal point.  Stops when both primal and dual iterates change by less
    than ``eps_stop`` relatively (the dual check keeps the start x = z = 0,
    whose first primal step is always stationary, from terminating before
    the dual has reacted to the data).  The steps are the balanced
    tau = sigma = 1/||G||, with ||G|| from `spectral_norm`, whose rounding
    puts them on the convergence boundary sigma*tau*||G||^2 = 1 exactly
    whenever a float within COUPLING_ULPS allows (and within an ulp of it
    otherwise).  The steps, lambda*tau and the model's conjugate prox at
    sigma (`CostModel.conjugate_prox`) are bound once, so an iteration
    computes little beyond its arithmetic.
    """
    G = _system(G, model)
    L, N = G.shape
    tau = sigma = 1.0 / spectral_norm(G)
    lam, eps, level = config.lam, config.eps_stop, config.lam * tau
    matvec, rmatvec = G.matvec, G.rmatvec
    dual_prox, finite_value = model.conjugate_prox(sigma), model.finite_value
    x, z, gx = np.zeros(N), np.zeros(L), np.zeros(L)
    trace = []
    for n in range(1, config.max_iter + 1):
        x_new = soft_threshold(x - tau * rmatvec(z), level)
        gx_new = matvec(x_new)
        z_new = dual_prox(z + sigma * (2.0 * gx_new - gx))
        trace.append(lam * np.abs(x_new).sum() + finite_value(gx_new))
        delta = _norm(x_new - x)
        stalled = _stalled(delta, _norm(x), eps) and _stalled(
            _norm(z_new - z), _norm(z), eps
        )
        x, gx, z = x_new, gx_new, z_new
        if stalled:
            break
    return SolverResult(x, n, trace, stalled, delta, tau=tau, sigma=sigma)


def apgd_solve(G, model, config):
    """Accelerated proximal gradient descent for smooth costs.

    Per iteration: a gradient step of size 1/(L_F ||G||^2) on
    E(x) = F(y, Gx), whose gradient is G^T grad F(Gx), followed by
    soft-thresholding, then momentum extrapolation with weight
    (n - 1)/(n + APGD_THETA).  Returns the proximal (non-extrapolated)
    iterate.  As in `pds_solve`, the step and lambda*tau are bound once.
    """
    if not hasattr(model, "grad"):
        raise ValueError(
            "%s has no Lipschitz gradient; use pds_solve" % type(model).__name__
        )
    G = _system(G, model)
    N = G.shape[1]
    # Lipschitz constant L_F ||G||^2 of the gradient of E, taken once
    norm = spectral_norm(G)
    tau = 1.0 / (model.grad_lipschitz * norm * norm)
    lam, eps, level = config.lam, config.eps_stop, config.lam * tau
    matvec, rmatvec = G.matvec, G.rmatvec
    grad, finite_value = model.grad, model.finite_value
    x, z_old = np.zeros(N), np.zeros(N)
    trace = []
    for n in range(1, config.max_iter + 1):
        z_new = soft_threshold(x - tau * rmatvec(grad(matvec(x))), level)
        x_new = z_new + ((n - 1.0) / (n + APGD_THETA)) * (z_new - z_old)
        trace.append(lam * np.abs(z_new).sum() + finite_value(matvec(z_new)))
        delta = _norm(x_new - x)
        stalled = _stalled(delta, _norm(x), eps)
        x, z_old = x_new, z_new
        if stalled:
            break
    return SolverResult(z_new, n, trace, stalled, delta, tau=tau)


def _cholesky_solve(A, b, name):
    """Solve A x = b by numpy's lower Cholesky factor C of A: C^T x = C^-1 b;
    ValueError naming the matrix ``name`` if A is not positive definite."""
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("%s is not positive definite: %s" % (name, exc))
    return np.linalg.solve(C.T, np.linalg.solve(C, b))


def tikhonov_solve(K, y, mu):
    """Quadratically penalised baseline: solve (K + mu*I) x = y by Cholesky,
    as a `SolverResult` of one converged iteration with the objective
    ||Kx - y||^2 + mu x^T K x.

    Raises
    ------
    ValueError
        mu <= 0, non-symmetric K, or K + mu*I not positive definite.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = check_number(mu, "mu", lambda v: v > 0, " > 0")
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] != y.size:
        raise ValueError("K must be square and match y")
    if not np.allclose(K, K.T, rtol=1e-10, atol=1e-12):
        raise ValueError("K must be symmetric")
    x = _cholesky_solve(K + mu * np.eye(K.shape[0]), y, "K + mu*I")
    Kx = K @ x
    objective = float(np.linalg.norm(Kx - y)) ** 2 + mu * float(x @ Kx)
    residual = np.linalg.norm(Kx + mu * x - y) / max(np.linalg.norm(y), 1e-300)
    return SolverResult(x, 1, [objective], True, residual)


def rkhs_project(kernel, knots, samples):
    """Project point samples onto the lattice spline space.

    The projection of h onto span{psi(<., r_n>)} interpolates h at the
    knots, so the coefficients solve ``K c = h(knots)`` with K the knot
    Gram matrix (symmetric positive definite for distinct knots), done by
    Cholesky.

    Returns
    -------
    SplineField
    """
    samples = np.asarray(samples, dtype=float)
    K = knot_gram(kernel, knots)
    if samples.shape != (K.shape[0],):
        raise ValueError("need one sample per knot")
    return SplineField(kernel, knots, _cholesky_solve(K, samples, "knot Gram matrix"))
