"""Spherical spline fields: the kernel expansion, fast evaluation, and norms.

A field is a finite kernel expansion ``f(r) = sum_n x_n psi(<r, r_n>)`` over
lattice knots.  Evaluation multiplies the Gram assembly's kernel blocks,
in-support pairs only for compactly supported kernels; the naive full sum is
the correctness oracle.  A `RasterGrid` keeps the kernel blocks of its cells,
so the fields of a sweep evaluate there by products alone.
"""

import math
from collections import namedtuple

import numpy as np

from .gram import kernel_blocks
from .sphere import (
    BLOCK_ENTRIES,
    KnotSet,
    check_integer,
    check_number,
    direction_from_lonlat,
)

# kernel values a `RasterGrid` keeps between evaluations (16 MB as dense
# float64); a grid whose kernel blocks hold more streams them at each one
RASTER_ENTRIES = 8 * BLOCK_ENTRIES


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
    `gram.kernel_blocks`, each multiplied into the coefficients by
    `block_products`.
    """
    t_in = np.asarray(targets, dtype=float)
    pts = np.atleast_2d(t_in)
    out = block_products(kernel_blocks(field.kernel, pts, field.knots.points),
                         field.coeffs, len(pts))
    return float(out[0]) if t_in.ndim == 1 else out


def row_entries(kernel, n):
    """The values a row of `gram.kernel_blocks` is expected to hold against
    n knots: all n, or, for a compactly supported kernel and quasi-uniform
    knots, the (1 - tmin)/2 of them that its support cap covers (at least 1)."""
    tmin = kernel.support_tmin
    return n if tmin is None else max(1.0, 0.5 * (1.0 - tmin) * n)


def block_products(blocks, coeffs, size):
    """The (size,) values ``block @ coeffs`` of the ``(rows, block)`` pairs
    of a kernel matrix, as `gram.kernel_blocks` yields them or a stored
    list of them holds."""
    out = np.empty(size)
    for rows, block in blocks:
        out[rows] = block @ coeffs
    return out


class RasterGrid:
    """Values of fields in ``kernel`` over the KnotSet ``knots`` at the cell
    centres of an equal-angle grid: ``lat`` holds the n_lat row centres,
    south to north, and ``lon`` the n_lon column centres, west to east, in
    degrees; cell ``i * n_lon + j`` is (lon[j], lat[i]).

    The grid builds its cells' directions when made.  The first `values`
    call multiplies each kernel block of the cells against the knots into
    its coefficients, keeping the blocks while they hold at most
    RASTER_ENTRIES values (none when `row_entries` expects more).  A
    later call multiplies the kept blocks, or streams them again when they
    were over the cap; the values are the bits of `evaluate` either way.
    ``record`` says which: ``{"stored": kept, "entries": values per call}``.
    """

    def __init__(self, n_lat, n_lon, kernel, knots):
        n_lat, n_lon = check_integer(n_lat, "n_lat", 2), check_integer(n_lon, "n_lon", 2)
        self.lat = -90.0 + (np.arange(n_lat) + 0.5) * (180.0 / n_lat)
        self.lon = -180.0 + (np.arange(n_lon) + 0.5) * (360.0 / n_lon)
        lon, lat = np.meshgrid(self.lon, self.lat)  # (n_lat, n_lon)
        self.directions = direction_from_lonlat(lon.ravel(), lat.ravel())
        self.kernel, self.knots = kernel, knots
        self.blocks = self.record = None

    def values(self, coeffs):
        """The (n_lat * n_lon,) values of the field with ``coeffs``."""
        size = len(self.directions)
        if self.blocks is not None:
            return block_products(self.blocks, coeffs, size)
        stream = kernel_blocks(self.kernel, self.directions, self.knots.points)
        if self.record is not None:
            return block_products(stream, coeffs, size)
        expected = size * row_entries(self.kernel, len(self.knots))
        kept = [] if expected <= RASTER_ENTRIES else None
        out, entries = np.empty(size), 0
        for rows, block in stream:
            out[rows] = block @ coeffs
            entries += block.size  # the stored values of a CSR block
            if entries > RASTER_ENTRIES:
                kept = None
            if kept is not None:
                kept.append((rows, block))
        self.blocks = kept
        self.record = {"stored": kept is not None, "entries": entries}
        return out


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
