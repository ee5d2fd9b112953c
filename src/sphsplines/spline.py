"""Spherical spline fields: the kernel expansion, fast evaluation, and norms.

A field is a finite kernel expansion ``f(r) = sum_n x_n psi(<r, r_n>)`` over
lattice knots.  Evaluation visits only in-support knots for compactly
supported kernels (the evaluator the Gram assembly uses); the naive full sum
is the correctness oracle.
"""

import math
from collections import namedtuple

import numpy as np

from .gram import kernel_blocks
from .sphere import KnotSet, check_number


class SplineField:
    """Immutable kernel expansion over a knot set.

    Parameters
    ----------
    kernel : ZonalKernel
    knots : KnotSet
    coeffs : (N,) real array, finite; kept as a read-only copy
    """

    def __init__(self, kernel, knots, coeffs):
        if not isinstance(knots, KnotSet):
            knots = KnotSet(knots)
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size != len(knots):
            raise ValueError(
                "need one coefficient per knot (got %d for %d knots)"
                % (coeffs.size, len(knots))
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.kernel = kernel
        self.knots = knots
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)

    def __call__(self, targets):
        return evaluate(self, targets)

    def __repr__(self):
        return "SplineField(%r, %d knots)" % (self.kernel, len(self.knots))


def evaluate(field, targets):
    """Field values sum_n x_n psi(<r, r_n>) at unit target directions.

    ``targets`` is (M, 3), giving (M,) values, or (3,), giving a float.  The
    kernel matrix of targets against knots comes in bounded row blocks from
    `gram.kernel_blocks`, each multiplied into the coefficients.
    """
    t_in = np.asarray(targets, dtype=float)
    pts = np.atleast_2d(t_in)
    out = np.empty(pts.shape[0])
    for rows, block in kernel_blocks(field.kernel, pts, field.knots.points):
        out[rows] = block @ field.coeffs
    return float(out[0]) if t_in.ndim == 1 else out


def native_norm(field, K):
    """sqrt(c^T K c) with K the knot Gram matrix of the field's kernel.

    Raises
    ------
    ValueError
        Clearly negative quadratic form (K was not positive definite).
    """
    c = field.coeffs
    q = float(c @ (np.asarray(K, dtype=float) @ c))
    scale = max(1.0, float(np.abs(K).max()) * float(c @ c))
    if q < -1e-12 * scale:
        raise ValueError("negative quadratic form: Gram matrix not positive definite")
    return math.sqrt(max(q, 0.0))


SparsityReport = namedtuple("SparsityReport", ["count", "indices"])


def sparsity_report(field, rel_threshold=1e-4):
    """Count coefficients above ``rel_threshold * max|coeff|``."""
    rel_threshold = check_number(rel_threshold, "rel_threshold", lambda v: 0 < v < 1,
                                 " in (0, 1)")
    mag = np.abs(field.coeffs)
    peak = mag.max() if mag.size else 0.0
    if peak == 0.0:
        return SparsityReport(0, [])
    idx = np.nonzero(mag > rel_threshold * peak)[0]
    return SparsityReport(int(idx.size), idx.tolist())
