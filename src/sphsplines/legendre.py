"""Legendre polynomials, quadrature, and the Fourier-Legendre transform of
zonal kernels.

The transform convention is fixed so that for a zonal kernel psi on the
2-sphere,

    psi_hat[n] = 2*pi * int_{-1}^{1} psi(t) P_n(t) dt,

and resynthesis ``sum_n (2n+1)/(4*pi) * psi_hat[n] * P_n(t)`` reproduces psi.
These are exactly the Funk-Hecke eigenvalues of the associated convolution
operator, so spherical self-convolution squares the coefficients.
`resynthesize` is the reference evaluation; `tabulate` gives a series a
`KernelTable` in theta where an a priori bound certifies one.
"""

import functools
import math

import numpy as np

from .sphere import check_integer

# values of t per chunk of `resynthesize` and of a `KernelTable` lookup (128 kB
# of float64): the work arrays stay in cache, whatever the size of t
RESYNTH_CHUNK = 1 << 14

# most theta steps M `tabulate` tries; a series whose bound is still above its
# tolerance there keeps Clenshaw (a table holds 4 arrays of M floats)
TABLE_MAX_NODES = 1 << 14


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
    """The nodes/weights arrays of `gauss_legendre` on (-1, 1); weights sum to 2."""

    def __init__(self, nodes, weights):
        self.nodes, self.weights = nodes, weights

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
    `resynthesize`, so it serves wherever a zonal function of t does.  It
    keeps a read-only copy of ``coeffs``, so neither the caller's array nor
    a holder of the series can change it.
    """

    def __init__(self, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)

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
    # P_n(t) by the recurrence of `legendre_all`, one degree at a time, so
    # memory is a few arrays of Q whatever N_max
    g = w * c * vals
    coeffs = np.empty(N_max + 1)
    prev, cur = np.zeros(Q), np.ones(Q)  # P_{-1} = 0 and P_0
    for n in range(N_max + 1):
        coeffs[n] = cur.dot(g)
        prev, cur = cur, ((2 * n + 1) * t * cur - n * prev) / (n + 1)
    return LegendreSeries(2.0 * np.pi * coeffs)


def _weights(series):
    """The synthesis weights a_n = (2n+1)/(4*pi) * psi_hat[n] of a series."""
    return (2.0 * np.arange(series.n_max + 1) + 1.0) / (4.0 * np.pi) * series.coeffs


def _clenshaw(a, flat):
    """``sum_n a[n] * P_n(t)`` at each t of the 1-d array ``flat``, in
    chunks, as `resynthesize` describes."""
    out = np.empty(flat.shape)
    work = np.empty((3, min(flat.size, RESYNTH_CHUNK)))
    for lo in range(0, flat.size, RESYNTH_CHUNK):
        tc = flat[lo : lo + RESYNTH_CHUNK]
        b1, b2, tmp = work[:, : tc.size]
        b1.fill(0.0)
        b2.fill(0.0)
        # b_n = a_n + (2n+1)/(n+1) t b_{n+1} - (n+1)/(n+2) b_{n+2}; the sum is b_0
        for n in range(a.size - 1, -1, -1):
            b2 *= -(n + 1.0) / (n + 2.0)
            b2 += a[n]
            np.multiply((2.0 * n + 1.0) / (n + 1.0), tc, out=tmp)
            tmp *= b1
            b2 += tmp
            b1, b2 = b2, b1
        out[lo : lo + tc.size] = b1
    return out


def _shaped(out, t, t_arr):
    """The flat result ``out`` as a float for a scalar ``t``, else in t's shape."""
    return float(out[0]) if np.isscalar(t) or t_arr.ndim == 0 else out.reshape(t_arr.shape)


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
    return _shaped(_clenshaw(_weights(series), t_arr.reshape(-1)), t, t_arr)


class KernelTable:
    """A zonal function psi(t) read from a table in theta = arccos(t).

    f(theta) = psi(cos theta) and f'(theta) are tabulated at the M + 1
    nodes theta_k = k*h, h = pi/M, and read by cubic Hermite interpolation:
    one cubic in u = theta/h - k per step, by Horner, over chunks of
    RESYNTH_CHUNK values.  The cubic at u = 0 is the tabulated value itself,
    so at t = 1 the table is bitwise its first node.  `tabulate` builds one
    and proves its bound.

    Attributes
    ----------
    nodes : int
        M, the number of theta steps (the table holds M + 1 nodes).
    error_bound : float
        The a priori bound on |table - psi| before rounding.  Rounding adds
        that of the series' own evaluation, and that of theta = arccos(t),
        a few ulps of pi, times |f'(theta)|.
    """

    def __init__(self, values, slopes, error_bound):
        self.nodes = values.size - 1
        self.error_bound = error_bound
        self._step = math.pi / self.nodes
        # step k reads f_k + u (g_k + u (c2_k + u c3_k)), with g = h f'
        g = self._step * slopes
        rise = np.diff(values)
        self._cubic = (values[:-1], g[:-1], 3.0 * rise - 2.0 * g[:-1] - g[1:],
                       g[:-1] + g[1:] - 2.0 * rise)

    def __call__(self, t):
        t_arr = _check_t(t)
        flat = t_arr.reshape(-1)
        out = np.empty(flat.shape)
        c0, c1, c2, c3 = self._cubic
        for lo in range(0, flat.size, RESYNTH_CHUNK):
            u = np.clip(flat[lo : lo + RESYNTH_CHUNK], -1.0, 1.0)
            np.arccos(u, out=u)
            u /= self._step  # theta/h, in [0, M]
            k = np.minimum(u.astype(np.intp), self.nodes - 1)
            u -= k
            p = c3[k]
            p *= u
            p += c2[k]
            p *= u
            p += c1[k]
            p *= u
            p += c0[k]
            out[lo : lo + u.size] = p
        return _shaped(out, t, t_arr)


def tabulate(series):
    """The `KernelTable` of a series, or None where no table is certified.

    With the synthesis weights a_n, f(theta) = sum_n a_n P_n(cos theta) is a
    trigonometric polynomial of degree n_max, so Bernstein's inequality
    bounds its fourth derivative by sum_n |a_n| n^4, and cubic Hermite
    interpolation with exact slopes errs by at most h^4/384 times that.  M
    is the smallest power of two whose bound is within 4 * eps *
    sum_n |a_n|, the rounding of the series' own evaluation.  If even
    TABLE_MAX_NODES steps miss it, the series keeps Clenshaw: None.  The
    values come from `resynthesize`, and the slopes -sin(theta) psi'(t) from
    the derivative series through the same Clenshaw recurrence.
    """
    a = _weights(series)
    size = np.abs(a)
    tol = 4.0 * np.finfo(float).eps * size.sum()
    fourth = float((size * np.arange(a.size, dtype=float) ** 4).sum()) / 384.0
    M = 1
    while (math.pi / M) ** 4 * fourth > tol and M < TABLE_MAX_NODES:
        M *= 2
    bound = (math.pi / M) ** 4 * fourth
    if bound > tol:
        return None
    k = np.arange(M + 1)
    t = np.cos((math.pi / M) * k)
    # sin(theta) from the nearer end, so it is exactly 0 at both ends
    sin = np.sin((math.pi / M) * np.minimum(k, M - k))
    slopes = -sin * _clenshaw(np.polynomial.legendre.legder(a), t)
    return KernelTable(resynthesize(series, t), slopes, bound)
