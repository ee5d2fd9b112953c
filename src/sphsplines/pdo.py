"""The Sobolev operator on the 2-sphere as a Fourier symbol of its order beta.

The operator ``(1 - Laplace-Beltrami)^beta`` acts on the degree-n harmonic
eigenspace by the eigenvalue ``(1 + n(n+1))^beta``, so its spectral growth
order is ``2*beta``.  A kernel of order beta pairs with a kind of sampling
functional only if that growth order exceeds the kind's threshold, d - 1 = 2
for Diracs and (d - 1)/2 = 1 for square-integrable functionals (e.g. patch
indicators); the Dirac threshold is also what makes the Green series converge
uniformly to a continuous kernel.
"""

import numpy as np

from .legendre import LegendreSeries
from .sphere import check_number

# growth-order thresholds on S^2 (d = 3): d - 1 and (d - 1)/2
_THRESHOLDS = {"dirac": 2.0, "square_integrable": 1.0}


def sobolev_symbol(beta, n):
    """Sobolev symbol ``(1 + n(n+1))^beta`` at integer degree(s) n >= 0."""
    beta = check_number(beta, "beta", lambda v: v > 0, " > 0")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("degrees must be >= 0")
    return (1.0 + n * (n + 1.0)) ** beta


def check_compatibility(beta, kind):
    """Raise unless a kernel of order beta pairs with functionals of ``kind``.

    Dirac sampling needs growth order ``2*beta > 2``; square-integrable
    functionals need ``2*beta > 1``.
    """
    if kind not in _THRESHOLDS:
        raise ValueError("functional_kind must be 'dirac' or 'square_integrable'")
    if not 2.0 * beta > _THRESHOLDS[kind]:
        raise ValueError(
            "kernel coefficient decay order %g is too small for %s "
            "sampling (needs > %g)" % (2.0 * beta, kind, _THRESHOLDS[kind])
        )


def _tail_bound(beta, N):
    """Upper bound on ``sum_{n>N} (2n+1) / (4 pi (1 + n(n+1))^beta)``.

    Exact partial sum out to M = max(4N, 4096) plus an integral-comparison
    remainder using 2n+1 <= 3n and the lower growth constant
    ``C1 = min symbol[n]/n^p`` over [M+1, 2M] (p = 2*beta; symbol[n]/n^p is
    monotone, so the window minimum bounds the tail).
    """
    p = 2.0 * beta
    a_d = 4.0 * np.pi
    M = max(4 * N, 4096)
    ns = np.arange(N + 1, M + 1)
    exact = np.sum((2.0 * ns + 1.0) / (a_d * sobolev_symbol(beta, ns)))
    window = np.arange(M + 1, 2 * M + 1)
    c1 = np.min(sobolev_symbol(beta, window) / window.astype(float) ** p)
    remainder = 3.0 / (a_d * c1) * M ** (2.0 - p) / (p - 2.0)
    return exact + remainder


def green_series(beta, *, tol=1e-8):
    """Fourier-Legendre series of the zonal Green kernel of the Sobolev operator.

    Coefficients are ``1/(1 + n(n+1))^beta``, truncated at the smallest N
    whose analytic tail bound drops below ``tol`` (the remainder of the
    uniform series, so the returned kernel is within tol of the full Green
    kernel everywhere).  The series converges only for growth order
    ``2*beta > d - 1 = 2``.

    Returns
    -------
    LegendreSeries
    """
    beta = check_number(beta, "beta")
    if not 2.0 * beta > _THRESHOLDS["dirac"]:
        raise ValueError(
            "symbol not spline-admissible: growth order %g <= %g"
            % (2.0 * beta, _THRESHOLDS["dirac"])
        )
    tol = check_number(tol, "tol", lambda v: v > 0, " > 0")
    lo = hi = 1
    while _tail_bound(beta, hi) >= tol:
        hi *= 2
        if hi > 2**22:
            raise ValueError("tail bound did not reach tol; symbol grows too slowly")
    # smallest N in (lo, hi] with bound < tol (bound is decreasing in N)
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(beta, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return LegendreSeries(1.0 / sobolev_symbol(beta, np.arange(hi + 1)))
