"""Reference system matrices and certified optimality gaps.

Everything here is computed from the generated inputs by code that shares
nothing with the program's timed assembly or solver paths: kernels are
re-derived in closed form, Gram rows are dense quadratures, the exact-match
optimum comes from HiGHS, and the penalised problems are certified with a
Fenchel dual bound.  The only library pieces used are the problem's own
definitions (the Fibonacci knots and the lon/lat convention).
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# ----------------------------------------------------------------- kernels


def _chord(t):
    return np.sqrt(np.clip(2.0 - 2.0 * np.asarray(t, dtype=float), 0.0, 4.0))


def matern25_eq60(epsilon):
    """Matérn beta = 2.5 in the unit-rate convention: (1 + c/eps) exp(-c/eps)."""
    def psi(t):
        r = _chord(t) / epsilon
        return (1.0 + r) * np.exp(-r)
    return psi


def wendland31(epsilon):
    """Wendland (d, k) = (3, 1): (1 - r)^4 (1 + 4r) for r = c/eps < 1, else 0."""
    def psi(t):
        r = np.minimum(_chord(t) / epsilon, 1.0)
        q = (1.0 - r) * (1.0 - r)
        return q * q * (1.0 + 4.0 * r)
    return psi


# ------------------------------------------------------------ Gram matrices


def dirac_gram(psi, sample_dirs, knot_pts):
    """Dense G[l, n] = psi(<p_l, r_n>)."""
    return psi(np.clip(sample_dirs @ knot_pts.T, -1.0, 1.0))


def patch_gram(psi, bounds_deg, knot_pts, Q, chunk=128):
    """Dense G[l, n] = int_{B_l} psi(<r, r_n>) dr by a Q x Q Gauss rule in
    (lon, u = sin lat), where the area element is exactly du dlon.

    ``bounds_deg`` is an (L, 4) array of lon_min, lon_max, lat_min, lat_max.
    """
    nodes, weights = np.polynomial.legendre.leggauss(int(Q))
    b = np.radians(np.asarray(bounds_deg, dtype=float))
    out = np.empty((b.shape[0], knot_pts.shape[0]))
    for lo in range(0, b.shape[0], chunk):
        blk = b[lo : lo + chunk]
        lon_half = 0.5 * (blk[:, 1] - blk[:, 0])
        u0, u1 = np.sin(blk[:, 2]), np.sin(blk[:, 3])
        u_half = 0.5 * (u1 - u0)
        lon = nodes[None, :] * lon_half[:, None] + 0.5 * (blk[:, 0] + blk[:, 1])[:, None]
        u = nodes[None, :] * u_half[:, None] + 0.5 * (u0 + u1)[:, None]
        w = (weights[None, :, None] * lon_half[:, None, None]) * (
            weights[None, None, :] * u_half[:, None, None]
        )
        rho = np.sqrt(np.clip(1.0 - u**2, 0.0, None))
        dirs = np.stack(
            [
                rho[:, None, :] * np.cos(lon)[:, :, None],
                rho[:, None, :] * np.sin(lon)[:, :, None],
                np.broadcast_to(u[:, None, :], (blk.shape[0], Q, Q)),
            ],
            axis=-1,
        )
        vals = psi(np.clip(dirs @ knot_pts.T, -1.0, 1.0))  # (chunk, Q, Q, N)
        out[lo : lo + chunk] = np.einsum("lij,lijn->ln", w, vals)
    return out


# ----------------------------------------------- Legendre series (Clenshaw)


def legendre_coefficients(psi, n_max=512, Q=600):
    """psi_hat[n] = 2 pi int psi(t) P_n(t) dt by a Q-node Gauss rule."""
    t, w = np.polynomial.legendre.leggauss(int(Q))
    f = w * psi(t)
    coeffs = np.empty(n_max + 1)
    p_prev, p = np.ones_like(t), t.copy()
    coeffs[0] = f.sum()
    if n_max >= 1:
        coeffs[1] = f @ p
    for n in range(1, n_max):
        p_prev, p = p, ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
        coeffs[n + 1] = f @ p
    return 2.0 * np.pi * coeffs


def clenshaw(coeffs, t):
    """sum_n (2n+1)/(4 pi) coeffs[n] P_n(t) with O(t.size) memory."""
    t = np.asarray(t, dtype=float)
    a = (2.0 * np.arange(coeffs.size) + 1.0) / (4.0 * np.pi) * coeffs
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for n in range(coeffs.size - 1, 0, -1):
        # P_{n+1} = alpha_n t P_n + beta_n P_{n-1}
        alpha = (2.0 * n + 1.0) / (n + 1.0)
        beta = -(n + 1.0) / (n + 2.0)
        b1, b2 = a[n] + alpha * t * b1 + beta * b2, b1
    return a[0] + t * b1 - 0.5 * b2


def series_gram(coeffs, pts):
    """Dense K[m, n] = sum_n (2n+1)/(4 pi) coeffs[n] P_n(<p_m, p_n>)."""
    K = clenshaw(coeffs, np.clip(pts @ pts.T, -1.0, 1.0))
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, clenshaw(coeffs, np.ones(1))[0])
    return K


# ---------------------------------------------------------------- optima


def lp_optimum(G, y, lam=1.0):
    """min lam ||x||_1 s.t. Gx = y by HiGHS on the split [G, -G].

    Returns (p_star, x_star) with x_star a simplex vertex, hence at most
    len(y) nonzeros.
    """
    G = np.asarray(G, dtype=float)
    N = G.shape[1]
    res = linprog(
        np.full(2 * N, float(lam)),
        A_eq=np.hstack([G, -G]),
        b_eq=y,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError("HiGHS failed on the reference LP: %s" % res.message)
    return float(res.fun), res.x[:N] - res.x[N:]


def kl_value(y, z):
    """sum_{y>0} (y log(y/z) - y + z) + sum_{y=0} max(z, 0).

    On zero-count patches the term is the KL limit z, extended by 0 below
    z = 0 so that tiny negative rates left by an unconverged solver cost
    nothing; the extension is convex and its conjugate (0 on [0, 1]) accepts
    the dual point used below, so the certificate stays a valid bound for
    this objective.  A nonpositive rate on a patch with counts is +inf.
    """
    z = np.asarray(z, dtype=float)
    pos = y > 0
    if np.any(z[pos] <= 0):
        return np.inf
    return float(
        np.sum(y[pos] * np.log(y[pos] / z[pos]) - y[pos] + z[pos])
        + np.maximum(z[~pos], 0.0).sum()
    )


def _kl_grad(y, z):
    u = np.ones_like(z)
    pos = y > 0
    u[pos] = 1.0 - y[pos] / z[pos]
    return u


COSTS = {
    # name: (F(y, z), grad F(y, z), F*(y, u))
    "ls": (
        lambda y, z: float(np.sum((y - z) ** 2)),
        lambda y, z: 2.0 * (z - y),
        lambda y, u: float(u @ y + 0.25 * (u @ u)),
    ),
    "kl": (
        kl_value,
        _kl_grad,
        lambda y, u: float(-np.sum(y[y > 0] * np.log1p(-u[y > 0]))),
    ),
}


def _balance_free(G, u, free):
    """Set u[free] within [0, 1] to minimise ||G^T u||_inf (one HiGHS LP)."""
    c = G[~free].T @ u[~free]
    A = sparse.csr_matrix(G[free].T)
    t = sparse.csr_matrix(np.ones((A.shape[0], 1)))
    res = linprog(
        np.r_[np.zeros(A.shape[1]), 1.0],
        A_ub=sparse.vstack([sparse.hstack([A, -t]), sparse.hstack([-A, -t])]),
        b_ub=np.r_[-c, c],
        bounds=[(0.0, 1.0)] * A.shape[1] + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError("HiGHS failed on the dual balancing LP: %s" % res.message)
    u = u.copy()
    u[free] = res.x[:-1]
    return u


def duality_gap(G, y, lam, x, cost):
    """Certified relative gap (P(x) - D(u)) / |P(x)| of min F(Gx) + lam ||x||_1.

    ``u`` is grad F(Gx) shrunk onto the dual-feasible set ||G^T u||_inf <=
    lam, and D(u) = -F*(u) bounds the optimum from below, so the true
    relative suboptimality of x never exceeds the returned value.  For KL
    the zero-count entries of u do not enter D (F* is 0 on [0, 1] there),
    so they are first chosen in [0, 1] to make G^T u as small as possible;
    the plain gradient (1 there) would give a far looser bound.

    Returns (gap, P, D).
    """
    value, grad, conj = COSTS[cost]
    z = G @ x
    primal = lam * float(np.abs(x).sum()) + value(y, z)
    if not np.isfinite(primal):
        return np.inf, primal, -np.inf
    u = grad(y, z)
    if cost == "kl" and np.any(y == 0):
        u = _balance_free(G, u, y == 0)
    scale = float(np.abs(G.T @ u).max())
    if scale > lam:
        u = u * (lam / scale)
    dual = -conj(y, u)
    return (primal - dual) / abs(primal), primal, dual


def tikhonov_gap(K, y, mu, x):
    """Relative suboptimality of x for J(x) = ||Kx - y||^2 + mu x^T K x.

    With r = (K + mu I) x - y the excess is exactly r^T K (K + mu I)^{-1} r,
    evaluated from r so no cancellation against J* occurs.
    Returns (gap, residual_rel) with residual_rel = ||r|| / ||y||.
    """
    A = K + mu * np.eye(K.shape[0])
    r = A @ x - y
    excess = float(r @ (K @ np.linalg.solve(A, r)))
    J = float(np.sum((K @ x - y) ** 2) + mu * (x @ (K @ x)))
    return excess / J, float(np.linalg.norm(r) / np.linalg.norm(y))
