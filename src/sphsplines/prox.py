"""Data-fidelity cost models, their proximity operators, and smooth gradients.

Each model anchors a measurement vector ``y`` and provides both the cost
value and its prox; the conjugate prox needed by the primal-dual iteration
comes from Moreau's identity, bound once per step size by
`CostModel.conjugate_prox`, so only the primal formulas live here.  Costs
are separable (or a ball indicator), which keeps every prox closed-form.  A
smooth model also provides ``grad`` and that gradient's Lipschitz constant
``grad_lipschitz``; the others declare neither.
"""

import numpy as np

from .sphere import check_number

# indicator feasibility is checked to this relative slack when reporting
# cost values (the prox formulas themselves are exact)
FEASIBILITY_RTOL = 1e-6


class CostModel:
    """Base: a convex data-fidelity term F(y, .) anchored at measurements y."""

    def __init__(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a nonempty 1-d vector")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        self.y = y

    def value(self, z):
        raise NotImplementedError

    def _prox(self, tau, z):
        """prox_{tau F}(z) for a float z shaped like y (see `prox_cost`)."""
        raise NotImplementedError

    def finite_value(self, z):
        """The finite part of the cost (0 for indicator models)."""
        return self.value(z)

    def conjugate_prox(self, sigma):
        """prox_{sigma F*} as a function of a float v shaped like y, with
        what depends on sigma and y alone computed once: Moreau's
        ``v - sigma * prox_{F/sigma}(v / sigma)`` through the model's own
        prox.  Neither sigma nor v's shape is checked; see `prox_conjugate`."""
        tau = 1.0 / sigma
        return lambda v: v - sigma * self._prox(tau, v / sigma)

    def __repr__(self):
        return "%s(L=%d)" % (type(self).__name__, self.y.size)


class ExactMatch(CostModel):
    """Indicator of {z = y}: hard interpolation constraints."""

    def value(self, z):
        tol = FEASIBILITY_RTOL * max(1.0, float(np.linalg.norm(self.y)))
        return 0.0 if np.linalg.norm(z - self.y) <= tol else np.inf

    def finite_value(self, z):
        return 0.0

    def _prox(self, tau, z):
        return self.y.copy()

    def conjugate_prox(self, sigma):
        # prox_{F/sigma} is y whatever its argument
        sigma_y = sigma * self.y
        return lambda v: v - sigma_y


class L1(CostModel):
    """Robust misfit ||z - y||_1."""

    def value(self, z):
        return float(np.abs(z - self.y).sum())

    def _prox(self, tau, z):
        return soft_threshold(z - self.y, tau) + self.y


class L2Ball(CostModel):
    """Indicator of the ball ||z - y||_2 <= radius."""

    def __init__(self, y, radius):
        super().__init__(y)
        self.radius = check_number(radius, "radius", lambda v: v > 0, " > 0")

    def value(self, z):
        slack = FEASIBILITY_RTOL * max(1.0, self.radius)
        inside = np.linalg.norm(z - self.y) <= self.radius + slack
        return 0.0 if inside else np.inf

    def finite_value(self, z):
        return 0.0

    def _prox(self, tau, z):
        d = z - self.y
        nd = np.linalg.norm(d)
        if nd <= self.radius:
            return z.copy()
        return self.y + (self.radius / nd) * d


class KL(CostModel):
    """Generalised Kullback-Leibler divergence, for count data.

    ``sum_i y_i log(y_i / z_i) - y_i + z_i`` with the y_i = 0 terms reading
    z_i (their limit), so zero counts are allowed.
    """

    def __init__(self, y):
        super().__init__(y)
        if np.any(self.y < 0):
            raise ValueError("KL requires y >= 0 elementwise")
        # boundary slack: iterates approach the z >= 0 constraint from
        # outside, so tiny negatives (relative feasibility) read as zero
        self._slack = FEASIBILITY_RTOL * (1.0 + self.y)
        self._pos = np.flatnonzero(self.y > 0)
        self._y_pos = self.y[self._pos]

    def value(self, z):
        z = np.asarray(z, dtype=float)
        z = np.where((z < 0) & (z >= -self._slack), 0.0, z)
        if np.any(z < 0):
            return np.inf
        z_pos, y_pos = z[self._pos], self._y_pos
        if np.any(z_pos == 0):
            return np.inf
        with np.errstate(divide="ignore"):
            terms = y_pos * np.log(y_pos / z_pos) - y_pos
        return float(terms.sum() + z.sum())

    def _prox(self, tau, z):
        if not np.all(np.isfinite(z)):
            raise ValueError("KL prox requires finite z")
        return 0.5 * (z - tau + np.sqrt((z - tau) ** 2 + 4.0 * tau * self.y))


class LeastSquares(CostModel):
    """Squared misfit ||y - z||_2^2 (smooth, Lipschitz gradient)."""

    grad_lipschitz = 2.0

    def value(self, z):
        return float(np.sum((self.y - z) ** 2))

    def grad(self, z):
        """Gradient 2 (z - y) of the cost at z."""
        return 2.0 * (z - self.y)

    def _prox(self, tau, z):
        return (z + 2.0 * tau * self.y) / (1.0 + 2.0 * tau)


def soft_threshold(z, theta):
    """Elementwise sign(z) * max(|z| - theta, 0), formed in the place of |z|."""
    if not theta >= 0:
        raise ValueError("threshold must be >= 0")
    z = np.asarray(z, dtype=float)
    shrunk = np.abs(z)
    shrunk -= theta
    np.maximum(shrunk, 0.0, out=shrunk)
    shrunk *= np.sign(z)
    return shrunk


def prox_cost(model, tau, z):
    """prox_{tau F}(z) = argmin_x F(y, x) + (1/(2 tau)) ||x - z||^2.

    Closed forms per model: ExactMatch projects onto {y}; L1 soft-thresholds
    the residual; L2Ball projects onto the ball; KL solves its separable
    quadratic; LeastSquares averages toward y.
    """
    tau = check_number(tau, "tau", lambda v: v > 0, " > 0")
    z = np.asarray(z, dtype=float)
    if z.shape != model.y.shape:
        raise ValueError("z must match y in shape")
    return model._prox(tau, z)


def prox_conjugate(model, sigma, v):
    """prox_{sigma F*}(v) via Moreau: v - sigma * prox_{F / sigma}(v / sigma),
    by the model's `CostModel.conjugate_prox` binding, after checking sigma
    and v's shape."""
    sigma = check_number(sigma, "sigma", lambda v: v > 0, " > 0")
    v = np.asarray(v, dtype=float)
    if v.shape != model.y.shape:
        raise ValueError("v must match y in shape")
    return model.conjugate_prox(sigma)(v)

