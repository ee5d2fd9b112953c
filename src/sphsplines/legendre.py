"""Legendre polynomials, quadrature, and the Fourier-Legendre transform of
zonal kernels.

The transform convention is fixed so that for a zonal kernel psi on the
2-sphere,

    psi_hat[n] = 2*pi * int_{-1}^{1} psi(t) P_n(t) dt,

and resynthesis ``sum_n (2n+1)/(4*pi) * psi_hat[n] * P_n(t)`` reproduces psi.
These are exactly the Funk-Hecke eigenvalues of the associated convolution
operator, so spherical self-convolution squares the coefficients.
"""

import functools
import math

import numpy as np

from .sphere import check_integer

# values of t per chunk of `resynthesize` (128 kB of float64): its three work
# arrays stay in cache through the whole recurrence, whatever the size of t
RESYNTH_CHUNK = 1 << 14


def _check_t(t):
    """``t`` as a float array; ValueError naming t unless every value is
    finite and in [-1, 1] (one reduction each way, no temporary: NaN fails
    both comparisons)."""
    t = np.asarray(t, dtype=float)
    if t.size and not (-1.0 - 1e-14 <= t.min() and t.max() <= 1.0 + 1e-14):
        raise ValueError("t must be finite and in [-1, 1]")
    return t


def legendre_all(N_max, t):
    """Legendre polynomials P_0(t) .. P_{N_max}(t) by the three-term recurrence.

    Parameters
    ----------
    N_max : int >= 0
    t : float or array_like, finite and in [-1, 1]

    Returns
    -------
    ndarray
        Shape ``(N_max + 1,) + shape(t)``.
    """
    t = _check_t(t)
    N_max = check_integer(N_max, "N_max", 0)
    P = np.empty((N_max + 1,) + t.shape)
    P[0] = 1.0
    if N_max >= 1:
        P[1] = t
    for n in range(1, N_max):
        P[n + 1] = ((2 * n + 1) * t * P[n] - n * P[n - 1]) / (n + 1)
    return P


class QuadratureRule:
    """Nodes/weights pair on (-1, 1); weights sum to 2."""

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.nodes = nodes
        self.weights = weights

    def mapped(self, a, b):
        """Affinely mapped copy of the rule onto [a, b]."""
        half = 0.5 * (b - a)
        return self.nodes * half + 0.5 * (a + b), self.weights * half


@functools.lru_cache(maxsize=32, typed=True)
def gauss_legendre(Q):
    """Gauss-Legendre rule with Q nodes (exact through degree 2Q-1); cached
    per Q and its type (``True`` misses 1) and shared, so read-only."""
    Q = check_integer(Q, "Q", 1)
    nodes, weights = np.polynomial.legendre.leggauss(Q)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


class LegendreSeries:
    """Fourier-Legendre coefficients psi_hat[0..N_max] of a zonal kernel.

    Calling the series at t evaluates the kernel it represents, by
    `resynthesize`, so it serves wherever a zonal function of t does.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs

    @property
    def n_max(self):
        return self.coeffs.size - 1

    def __len__(self):
        return self.coeffs.size

    def __call__(self, t):
        return resynthesize(self, t)


def fourier_legendre(kernel, N_max=512, Q=600):
    """Fourier-Legendre coefficients of a zonal kernel.

    ``psi_hat[n] = 2*pi * int psi(t) P_n(t) dt`` computed with a Q-node
    Gauss-Legendre rule in the chord variable c = sqrt(2 - 2t): with
    t = 1 - c^2/2 and dt = -c dc,

        psi_hat[n] = 2*pi * int_0^{c_s} psi(1 - c^2/2) P_n(1 - c^2/2) c dc,

    where c_s = sqrt(2 - 2*support_tmin) is the support chord of a compactly
    supported kernel and 2 otherwise.  Chord kernels psi(t) = phi(c) with odd
    powers of c (half-integer Matérn, Wendland) have a branch point
    (1 - t)^{k+1/2} at t = 1 that a Gauss rule in t cannot resolve; in c the
    Matérn integrand is analytic and the Wendland one a polynomial on
    [0, c_s], so one interval serves both.  Resynthesis of the result then
    differs from the kernel only by the truncation tail beyond N_max.

    Parameters
    ----------
    kernel : callable or ZonalKernel
        Evaluates psi(t) on [-1, 1]; a ``support_tmin`` attribute in
        (-1, 1) bounds the chord interval.
    N_max : int >= 0
        Highest retained degree.  ``P_n(1 - c^2/2) * c`` has degree 2n+1 in
        c, so a Q-node rule integrates it exactly only if ``N_max < Q``;
        larger N_max would alias high modes and is rejected.
    Q : int >= 1

    Returns
    -------
    LegendreSeries
    """
    N_max, Q = check_integer(N_max, "N_max", 0), check_integer(Q, "Q", 1)
    if N_max >= Q:
        raise ValueError("aliasing: need N_max < Q (got N_max=%d, Q=%d)" % (N_max, Q))
    support_tmin = getattr(kernel, "support_tmin", None)
    if support_tmin is not None and -1.0 < support_tmin < 1.0:
        c_s = math.sqrt(2.0 - 2.0 * support_tmin)
    else:
        c_s = 2.0
    c, w = gauss_legendre(Q).mapped(0.0, c_s)
    t = 1.0 - 0.5 * c * c
    vals = np.asarray(kernel(t), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel must be finite on [-1, 1]")
    coeffs = legendre_all(N_max, t) @ (w * c * vals)
    return LegendreSeries(2.0 * np.pi * coeffs)


def resynthesize(series, t):
    """Evaluate ``sum_n (2n+1)/(4*pi) * psi_hat[n] * P_n(t)``.

    Clenshaw summation (Clenshaw 1955) runs the Legendre recurrence
    backwards over the coefficients.  It runs over the flattened ``t`` in
    chunks of RESYNTH_CHUNK values through three work arrays of one chunk,
    updated in place, so memory is the output plus one chunk's work arrays
    whatever the degree and the size of ``t``.  Each value depends on its
    own t alone, so the result is bitwise the same for any chunking.

    Parameters
    ----------
    series : LegendreSeries
    t : float or array_like, finite and in [-1, 1]

    Returns
    -------
    float or ndarray matching the shape of ``t``
    """
    t_arr = _check_t(t)
    a = (2.0 * np.arange(series.n_max + 1) + 1.0) / (4.0 * np.pi) * series.coeffs
    flat = t_arr.reshape(-1)
    out = np.empty(flat.shape)
    work = np.empty((3, min(flat.size, RESYNTH_CHUNK)))
    for lo in range(0, flat.size, RESYNTH_CHUNK):
        tc = flat[lo : lo + RESYNTH_CHUNK]
        b1, b2, tmp = work[:, : tc.size]
        b1.fill(0.0)
        b2.fill(0.0)
        # b_n = a_n + (2n+1)/(n+1) t b_{n+1} - (n+1)/(n+2) b_{n+2}; the sum is b_0
        for n in range(series.n_max, -1, -1):
            b2 *= -(n + 1.0) / (n + 2.0)
            b2 += a[n]
            np.multiply((2.0 * n + 1.0) / (n + 1.0), tc, out=tmp)
            tmp *= b1
            b2 += tmp
            b1, b2 = b2, b1
        out[lo : lo + tc.size] = b1
    return float(out[0]) if np.isscalar(t) or t_arr.ndim == 0 else out.reshape(t_arr.shape)
