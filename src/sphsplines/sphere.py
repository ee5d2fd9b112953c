"""Directions on the unit 2-sphere, lattices, distances, and patch geometry.

Directions are plain numpy arrays of shape ``(3,)`` (or ``(N, 3)`` for
collections), kept on the unit sphere to 1e-12 by the constructors in this
module.  The chord distance ``sqrt(2 - 2*<r,s>)`` is the Euclidean distance in
R^3 restricted to the sphere, and decreases as ``<r,s>`` grows.  So a pair
within a chord lies within it along any unit axis, which lets `KnotSet` find
near-duplicates by sorting along one axis, and a point's nearest knot is the
one of largest inner product, which `nodal_width` finds by matmul.
"""

import math
import numbers

import numpy as np

# chord separation below which two knots count as duplicates (Gram matrices
# need distinct knots)
DISTINCT_KNOT_TOL = 1e-10

# values per chunk of a (points x knots) temporary, 2 MB of float64: the
# kernel blocks of `gram.kernel_blocks` and the inner products of
# `nodal_width` stay bounded, whatever the number of points
BLOCK_ENTRIES = 1 << 18

# the axis `KnotSet` sorts knots along: irrational components, so no
# latitude ring, meridian or lattice row projects onto one value
SWEEP_AXIS = np.array([1.0, math.sqrt(2.0), math.pi]) / math.sqrt(3.0 + math.pi ** 2)


# The integer and number rules of the library's sizes, orders, scales and seeds,
# and of the run config's numeric keys: numpy scalars pass, a bool or a string
# never does, a float is never an integer, and a number is always finite.  Every
# other module imports them.


def check_integer(value, name, lowest, what="an integer"):
    """``value`` as an int if it is an integer >= ``lowest``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lowest:
        raise ValueError("%s must be %s >= %d" % (name, what, lowest))
    return int(value)


def check_number(value, name, ok=None, rule=""):
    """``value`` as a float if it is a finite real number passing ``ok``, if
    given, which ``rule`` describes."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not (ok is None or ok(value))):
        raise ValueError("%s must be a number%s" % (name, rule))
    return float(value)


def direction_from_lonlat(lon_deg, lat_deg):
    """Unit direction(s) from longitude/latitude in degrees.

    Convention: x-axis at (lon, lat) = (0, 0), z-axis at the north pole.

    Parameters
    ----------
    lon_deg, lat_deg : float or array_like
        Longitude (any finite real, wraps) and latitude in [-90, 90] degrees,
        broadcast against each other.

    Returns
    -------
    ndarray
        Shape ``(3,)`` for scalar input, else ``(..., 3)``.
    """
    lon, lat = np.broadcast_arrays(np.deg2rad(np.asarray(lon_deg, dtype=float)),
                                   np.deg2rad(np.asarray(lat_deg, dtype=float)))
    if not np.all(np.abs(lat) <= np.pi / 2 + 1e-12):
        raise ValueError("latitude out of range [-90, 90]")
    if not np.all(np.isfinite(lon)):
        raise ValueError("longitude must be finite")
    out = np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)],
        axis=-1,
    )
    return out


def lonlat_from_direction(points):
    """Inverse of `direction_from_lonlat`; returns (lon_deg, lat_deg)."""
    p = np.asarray(points, dtype=float)
    lat = np.rad2deg(np.arcsin(np.clip(p[..., 2], -1.0, 1.0)))
    lon = np.rad2deg(np.arctan2(p[..., 1], p[..., 0]))
    return lon, lat


class KnotSet:
    """An ordered set of pairwise-distinct unit directions.

    Parameters
    ----------
    points : (N, 3) array_like
        Unit directions.  Validated to unit norm (1e-12) and pairwise
        distinctness (minimum pairwise chord > 1e-10, found by a sort along
        SWEEP_AXIS: O(N log N) while few knots share a projection within
        1e-10, up to O(N^2) when many do).  Kept as a read-only copy.
    """

    def __init__(self, points):
        pts = np.atleast_2d(np.array(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if pts.shape[0] == 0:
            raise ValueError("empty knot set")
        norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("knots must be unit vectors (|norm - 1| <= 1e-12)")
        if _has_close_pair(pts, DISTINCT_KNOT_TOL):
            raise ValueError("duplicate knots (pairwise chord <= 1e-10)")
        self.points = pts
        self.points.setflags(write=False)

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return "KnotSet(%d points)" % len(self)


def _has_close_pair(pts, tol):
    """Whether two of the (N, 3) unit ``pts`` lie within chord ``tol``.

    Sort-and-sweep along SWEEP_AXIS: a pair within chord tol lies within tol
    along any unit axis, so only pairs whose sorted projections differ by at
    most that (plus their rounding) are candidates, each measured as a 3-d
    Euclidean distance.  The candidates are the neighbours in sorted order
    at offsets 1, 2, ... up to the first offset with none.  When the
    projections are well separated that is offset 1, and the sort's
    O(N log N) dominates.  When m points project within the window of one
    another, the sweep runs m offsets of O(N) work each: O(N^2) in the worst
    case, points crowded on the great circle orthogonal to SWEEP_AXIS.
    """
    proj = pts @ SWEEP_AXIS
    order = np.argsort(proj, kind="stable")
    proj, pts = proj[order], pts[order]
    window = tol + 8.0 * np.finfo(float).eps  # the rounding of two projections
    for k in range(1, len(pts)):
        near = np.flatnonzero(proj[k:] - proj[:-k] <= window)
        if near.size == 0:
            return False
        diff = pts[near + k] - pts[near]
        if np.sqrt(np.einsum("ij,ij->i", diff, diff)).min() <= tol:
            return True
    return False


def fibonacci_lattice(N):
    """Quasi-uniform Fibonacci lattice of N points.

    Points are phi_n = 2*pi*n*(1 - 2/(1+sqrt(5))), theta_n = arccos(1 - 2n/N)
    for n = 1..N, so the last point sits exactly on the south pole and no
    point sits on the north pole.  Covering radius scales like 2.728/sqrt(N).

    Parameters
    ----------
    N : int
        Number of points, >= 1.

    Returns
    -------
    KnotSet
    """
    N = check_integer(N, "N", 1)
    n = np.arange(1, N + 1, dtype=float)
    phi = 2.0 * np.pi * n * (1.0 - 2.0 / (1.0 + np.sqrt(5.0)))
    cos_theta = 1.0 - 2.0 * n / N
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    pts = np.stack(
        [np.cos(phi) * sin_theta, np.sin(phi) * sin_theta, cos_theta], axis=1
    )
    # renormalise to keep the unit-norm invariant at 1e-12 despite rounding
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return KnotSet(pts)


def nodal_width(knots, probe_resolution=None):
    """Brute-force covering-radius estimate of a knot set.

    Probes a dense Fibonacci lattice and returns the largest
    nearest-knot chord distance found.  This is a lower bound on the true
    covering radius that tightens as ``probe_resolution`` grows.  Each
    probe's nearest knot is the argmax of its inner products with the knots,
    taken over chunks of BLOCK_ENTRIES products.

    Parameters
    ----------
    knots : KnotSet
    probe_resolution : int, optional
        Number of probe points, default ``100 * len(knots)``.

    Returns
    -------
    float
    """
    if not isinstance(knots, KnotSet):
        knots = KnotSet(knots)
    N = len(knots)
    if probe_resolution is None:
        probe_resolution = 100 * N
    probe_resolution = check_integer(probe_resolution, "probe_resolution", 1)
    probes = fibonacci_lattice(probe_resolution).points
    size = max(1, BLOCK_ENTRIES // N)
    widest = 0.0
    for lo in range(0, len(probes), size):
        chunk = probes[lo : lo + size]
        # the nearest knot has the largest inner product; the width is the
        # Euclidean chord to it
        diff = chunk - knots.points[np.argmax(chunk @ knots.points.T, axis=1)]
        widest = max(widest, float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).max()))
    return widest


class PatchBounds:
    """A longitude/latitude rectangle on the sphere, bounds in degrees.

    Area is exact in the (lon, sin lat) parametrisation:
    ``dlon_rad * (sin lat_max - sin lat_min)``.
    """

    def __init__(self, lon_min, lon_max, lat_min, lat_max):
        lon_min = check_number(lon_min, "lon_min")
        lon_max = check_number(lon_max, "lon_max")
        lat_min = check_number(lat_min, "lat_min")
        lat_max = check_number(lat_max, "lat_max")
        if not (lon_min < lon_max <= lon_min + 360.0):
            raise ValueError("need lon_min < lon_max <= lon_min + 360")
        if not (-90.0 <= lat_min < lat_max <= 90.0):
            raise ValueError("need -90 <= lat_min < lat_max <= 90")
        self.lon_min, self.lon_max = lon_min, lon_max
        self.lat_min, self.lat_max = lat_min, lat_max

    @property
    def area(self):
        """Spherical area of the patch."""
        dlon = np.deg2rad(self.lon_max - self.lon_min)
        return dlon * (
            np.sin(np.deg2rad(self.lat_max)) - np.sin(np.deg2rad(self.lat_min))
        )

    def __repr__(self):
        return "PatchBounds(lon=[%g, %g], lat=[%g, %g])" % (
            self.lon_min,
            self.lon_max,
            self.lat_min,
            self.lat_max,
        )


def equal_angle_patch_grid(n_lat, n_lon):
    """Tile the sphere with an equal-angle grid of patches.

    Parameters
    ----------
    n_lat, n_lon : int
        Number of latitude rows and longitude columns, both >= 1.

    Returns
    -------
    list of PatchBounds
        ``n_lat * n_lon`` non-overlapping patches covering
        [-180, 180] x [-90, 90], row-major from the south.
    """
    n_lat, n_lon = check_integer(n_lat, "n_lat", 1), check_integer(n_lon, "n_lon", 1)
    lat_edges = np.linspace(-90.0, 90.0, n_lat + 1)
    lon_edges = np.linspace(-180.0, 180.0, n_lon + 1)
    return [
        PatchBounds(lon_edges[j], lon_edges[j + 1], lat_edges[i], lat_edges[i + 1])
        for i in range(n_lat)
        for j in range(n_lon)
    ]
