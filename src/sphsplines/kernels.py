"""Zonal Green kernels: closed-form Matérn and Wendland families, series-backed
Sobolev kernels, spherical self-convolution, and Lipschitz estimation.

All named constructors peak-normalise to ``psi(1) = 1``; global prefactors of
the underlying operator calculus only rescale coefficients and the
regularisation weight, so one convention is fixed.  Kernels are evaluated as
functions of ``t = <r, s>`` with the chord substitution ``c = sqrt(2 - 2t)``.
"""

import math
from fractions import Fraction

import numpy as np

from .legendre import KernelTable, LegendreSeries, fourier_legendre, tabulate
from .pdo import green_series
from .sphere import check_integer, check_number

# smallest chord scale `epsilon_for_fwhm` tries; so narrow a kernel needs ~1e8 knots
FWHM_EPS_LO = 1e-4
# largest one it tries: the named kernels take epsilon in (0, 1]
FWHM_EPS_HI = 1.0
# its bisection stops at this bracket width, far below any scale a run resolves
FWHM_EPS_TOL = 1e-10


class ZonalKernel:
    """A zonal function of t = <r, s> on [-1, 1] with support metadata.

    Parameters
    ----------
    eval_fn : callable
        Vectorised map t -> psi(t), e.g. a LegendreSeries or a KernelTable.
    beta : float or None
        Smoothness order of the matching operator (coefficients decay like
        (1 + eps*n)^(-2*beta)); None for unknown smoothness.
    support_tmin : float or None
        If set, psi(t) = 0 exactly for t <= support_tmin.

    Notes
    -----
    Named constructors guarantee ``psi(1) = 1``; kernels built from raw series
    via `from_series` (e.g. self-convolutions) keep their natural scale.  A
    kernel holds only what is read from it: ``beta`` for the smoothness check
    of `gram.assemble_gram` and ``support_tmin`` for its sparse assembly.
    Instances are immutable.
    """

    def __init__(self, eval_fn, beta=None, support_tmin=None):
        self._eval = eval_fn
        self.beta = beta
        self.support_tmin = support_tmin

    def __call__(self, t):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        out = np.asarray(self._eval(t))
        return float(out) if out.ndim == 0 else out

    def series(self, n_max=512, quad_order=600):
        """Fourier-Legendre coefficients of the kernel, at each call.

        Computed by `fourier_legendre` with a quad_order-node Gauss rule in
        the chord variable over the kernel's support, which requires
        ``n_max < quad_order``.  Resynthesis of the result differs from the
        kernel by the truncation tail beyond n_max: 3.8e-5 and 5.5e-5 at
        the default degree 512 for ``matern_zonal(2.5, 0.1)`` and
        ``wendland_zonal(3, 1, 0.2)``, below 1e-6 by degree 4096.
        """
        return fourier_legendre(self, check_integer(n_max, "n_max", 0),
                                check_integer(quad_order, "quad_order", 1))

    @property
    def table(self):
        """The `KernelTable` the kernel evaluates through, or None."""
        return self._eval if isinstance(self._eval, KernelTable) else None

    @classmethod
    def from_series(cls, series, beta=None):
        """Kernel of a coefficient series, at its natural scale.  It
        evaluates through the series' certified `KernelTable`
        (`legendre.tabulate`), or by resynthesis of the series where no
        table is certified.  ``beta`` is the smoothness order, if known."""
        table = tabulate(series)
        return cls(series if table is None else table, beta=beta)

    def __repr__(self):
        return "ZonalKernel(beta=%s, support_tmin=%s)" % (self.beta, self.support_tmin)


def _chord_kernel(profile, scale, **meta):
    """ZonalKernel(psi, **meta) of psi(t) = profile(sqrt(2 - 2t) / scale)."""
    return ZonalKernel(lambda t: profile(np.sqrt(np.clip(2.0 - 2.0 * t, 0.0, 4.0)) / scale),
                       **meta)


def matern_halfinteger(p, r):
    """Half-integer Matérn function S_{p+1/2}(r), peak-normalised.

    ``S(r) = exp(-sqrt(2p+1) r) * (p!/(2p)!) *
    sum_i (p+i)!/(i!(p-i)!) (sqrt(8p+4) r)^{p-i}``; with u = sqrt(8p+4)*r
    this is exp(-u/2) times a degree-p polynomial in u whose coefficients are
    c_j = p!(2p-j)!/((2p)!(p-j)!j!).  S(0) = 1.

    Parameters
    ----------
    p : int >= 0
        Polynomial order; the smoothness index is nu = p + 1/2.
    r : float or array_like >= 0
    """
    p = check_integer(p, "p", 0)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be >= 0")
    coefs = [
        Fraction(math.factorial(p) * math.factorial(2 * p - j),
                 math.factorial(2 * p) * math.factorial(p - j) * math.factorial(j))
        for j in range(p + 1)
    ]
    u = np.sqrt(8.0 * p + 4.0) * r
    out = np.exp(-0.5 * u) * np.polyval([float(c) for c in reversed(coefs)], u)
    return float(out) if out.ndim == 0 else out


def matern_zonal(beta, epsilon, convention="standard"):
    """Matérn zonal kernel of smoothness order beta and chord scale epsilon.

    The operator order beta maps to the Matérn index nu = beta - 1 (d = 3),
    which must be a half-integer for the closed form.  ``standard`` evaluates
    the half-integer formula verbatim at c/epsilon (exponential rate
    sqrt(2 nu)/epsilon); ``eq60`` uses the unit-rate variant
    S_nu(c/(epsilon*sqrt(2 nu))), e.g. (1 + c/eps) exp(-c/eps) at beta = 2.5.
    Both are peak-normalised with no compact support.
    """
    beta = check_number(beta, "beta")
    epsilon = check_number(epsilon, "epsilon", lambda v: 0 < v <= 1, " in (0, 1]")
    nu = beta - 1.0
    p = nu - 0.5
    if abs(p - round(p)) > 1e-12 or p < -1e-12:
        raise ValueError("beta - 1 must be a positive half-integer (got nu=%g)" % nu)
    p = int(round(p))
    scale = epsilon if convention == "standard" else None
    if convention == "eq60":
        scale = epsilon * math.sqrt(2.0 * nu)
    elif convention != "standard":
        raise ValueError("convention must be 'standard' or 'eq60'")
    return _chord_kernel(lambda r: matern_halfinteger(p, r), scale, beta=beta)


class WendlandPolynomial:
    """Piecewise polynomial phi_{d,k} on [0, 1] with exact rational coefficients.

    ``coeffs[j]`` is the Fraction coefficient of r**j; the function is 0 for
    r >= 1.  `wendland_construct` makes phi(0) = 1 and phi(1) = 0 exactly.
    """

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.polyval([float(c) for c in reversed(self.coeffs)], r)
        out = np.where(r < 1.0, out, 0.0)
        return float(out) if out.ndim == 0 else out


def wendland_construct(d, k):
    """Wendland polynomial phi_{d,k} by exact integral-operator algebra.

    Starts from the truncated power phi_l(r) = (1-r)_+^l with
    l = floor(d/2) + k + 1 and applies ``(I phi)(r) = int_r^1 t phi(t) dt``
    k times using exact rational antidifferentiation, then normalises to 1
    at r = 0.  Yields a positive-definite kernel of smoothness 2k on R^d;
    e.g. (3,1) gives (1-r)^4 (1+4r).
    """
    d, k = check_integer(d, "d", 1), check_integer(k, "k", 0)
    ell = d // 2 + k + 1
    # (1-r)^l expanded as ascending Fraction coefficients
    coeffs = [Fraction(math.comb(ell, j)) * (-1) ** j for j in range(ell + 1)]
    for _ in range(k):
        # t*phi(t) has coefficients shifted up one power; antiderivative A;
        # (I phi)(r) = A(1) - A(r)
        anti = [Fraction(0), Fraction(0)] + [c / (j + 2) for j, c in enumerate(coeffs)]
        total = sum(anti)
        coeffs = [total - anti[0]] + [-a for a in anti[1:]]
    peak = coeffs[0]
    coeffs = [c / peak for c in coeffs]
    return WendlandPolynomial(coeffs)


def wendland_zonal(d, k, epsilon):
    """Compactly supported Wendland zonal kernel.

    ``psi(t) = phi_{d,k}(c/epsilon)`` with c = sqrt(2-2t); exactly zero for
    chords >= epsilon, i.e. t <= 1 - epsilon^2/2.  Matches operator
    smoothness beta = k + d/2.  phi_{d,k} is positive definite on R^d only
    (Wendland 1995), and the sphere sits in R^3, so d must be >= 3.
    """
    d = check_integer(d, "d", 3)
    epsilon = check_number(epsilon, "epsilon", lambda v: 0 < v <= 1, " in (0, 1]")
    return _chord_kernel(wendland_construct(d, k), epsilon, beta=k + d / 2.0,
                         support_tmin=1.0 - epsilon**2 / 2.0)


def sobolev_green_zonal(beta, *, tol=1e-8):
    """Series-backed Green kernel of the Sobolev operator of order beta.

    No closed form exists; the kernel is the `green_series` of
    ``1/(1+n(n+1))^beta`` truncated at tail bound ``tol``, resynthesized and
    peak-normalised by psi(1) > 0 (every coefficient is positive).
    `green_series` raises for an order beta too small to give a continuous
    kernel.
    """
    beta = check_number(beta, "beta")
    series = green_series(beta, tol=tol)
    return ZonalKernel.from_series(LegendreSeries(series.coeffs / series(1.0)), beta=beta)


def self_convolve(series):
    """Spherical self-convolution in coefficient space.

    The convolution operator of a zonal kernel is diagonalised by spherical
    harmonics with eigenvalues psi_hat[n] under this package's normalisation,
    so ``(psi * psi)^[n] = psi_hat[n]**2``.
    """
    return LegendreSeries(series.coeffs**2)


def lipschitz_estimate(kernel, grid=1000):
    """Numerical Lipschitz constant of r -> psi(<r, rho>) w.r.t. chord moves.

    Places ``grid`` points on a meridian through the reference direction and
    maximises |psi(t_i) - psi(t_j)| / ||r_i - r_j|| over all pairs.  A lower
    bound on the true constant that stabilises under grid refinement.
    """
    grid = check_integer(grid, "grid", 100)
    theta = np.linspace(0.0, np.pi, grid)
    vals = kernel(np.cos(theta))
    dv = np.abs(vals[:, None] - vals[None, :])
    gap = 2.0 * np.abs(np.sin(0.5 * (theta[:, None] - theta[None, :])))
    mask = gap > 1e-15
    return float(np.max(dv[mask] / gap[mask])) if np.any(mask) else 0.0


def epsilon_for_fwhm(kernel_factory, fwhm_deg):
    """Scale parameter giving a target angular full width at half maximum.

    Solves ``psi_eps(cos(fwhm/2)) = 1/2`` for eps by bisection over
    [FWHM_EPS_LO, FWHM_EPS_HI] to FWHM_EPS_TOL, using the fact that
    widening the kernel raises its value at a fixed angle.

    Parameters
    ----------
    kernel_factory : callable
        Map eps -> ZonalKernel (e.g. ``lambda e: matern_zonal(2.5, e)``).
    fwhm_deg : number > 0
        Target full width at half maximum in degrees of great-circle angle.
    """
    fwhm_deg = check_number(fwhm_deg, "fwhm_deg", lambda v: v > 0, " > 0")
    t_half = math.cos(math.radians(fwhm_deg) / 2.0)

    def gap(eps):
        return float(kernel_factory(eps)(t_half)) - 0.5

    lo, hi = FWHM_EPS_LO, FWHM_EPS_HI
    if gap(lo) > 0 or gap(hi) < 0:
        raise ValueError("FWHM target not bracketed by eps in [%g, %g]" % (lo, hi))
    while hi - lo > FWHM_EPS_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
