import numpy as np
import pytest

from sphsplines.sphere import (
    KnotSet,
    PatchBounds,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
    lonlat_from_direction,
    nodal_width,
)


def test_direction_axis_cases():
    np.testing.assert_allclose(direction_from_lonlat(0, 0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(direction_from_lonlat(90, 0), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(direction_from_lonlat(0, 90), [0, 0, 1], atol=1e-15)


def test_direction_unit_norm():
    rng = np.random.default_rng(0)
    lon = rng.uniform(-180, 180, size=200)
    lat = rng.uniform(-90, 90, size=200)
    d = direction_from_lonlat(lon, lat)
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_direction_lat_out_of_range():
    with pytest.raises(ValueError):
        direction_from_lonlat(0, 91)


def test_direction_broadcasts_a_scalar_coordinate_against_an_array():
    # a scalar latitude with array longitudes (a parallel) and a scalar
    # longitude with array latitudes (a meridian), each bitwise the call on
    # arrays broadcast by hand
    values = np.array([[-170.0, 0.0, 10.0], [35.5, 90.0, 200.0]])
    for lon, lat in ((values, 30.0), (12.5, values / 2.5)):
        d = direction_from_lonlat(lon, lat)
        want = direction_from_lonlat(*np.broadcast_arrays(lon, lat))
        assert d.shape == (2, 3, 3)
        assert d.tobytes() == want.tobytes()
    # the checks still name the bad coordinate
    with pytest.raises(ValueError, match="latitude"):
        direction_from_lonlat([0.0, 10.0], 91.0)
    with pytest.raises(ValueError, match="latitude"):
        direction_from_lonlat(0.0, [0.0, np.nan])
    with pytest.raises(ValueError, match="longitude"):
        direction_from_lonlat([0.0, np.nan], 0.0)
    with pytest.raises(ValueError, match="longitude"):
        direction_from_lonlat(np.inf, [0.0, 10.0])


def test_lonlat_roundtrip():
    rng = np.random.default_rng(1)
    lon = rng.uniform(-180, 180, size=50)
    lat = rng.uniform(-89.9, 89.9, size=50)
    lon2, lat2 = lonlat_from_direction(direction_from_lonlat(lon, lat))
    np.testing.assert_allclose(lon2, lon, atol=1e-10)
    np.testing.assert_allclose(lat2, lat, atol=1e-10)


def test_fibonacci_endpoints():
    for N in (7, 100):
        pts = fibonacci_lattice(N).points
        np.testing.assert_allclose(pts[-1], [0, 0, -1], atol=1e-12)
    # even N: point n = N/2 sits on the equator
    pts = fibonacci_lattice(10).points
    assert pts[4][2] == pytest.approx(0.0, abs=1e-12)


def test_fibonacci_rejects_zero():
    with pytest.raises(ValueError):
        fibonacci_lattice(0)


@pytest.mark.parametrize("N", [10, 100, 1000])
def test_fibonacci_pairwise_distinct(N):
    # KnotSet construction enforces pairwise distinctness
    knots = fibonacci_lattice(N)
    assert len(knots) == N


def test_knotset_rejects_duplicates():
    with pytest.raises(ValueError):
        KnotSet([[0, 0, 1], [0, 0, 1]])


def _near(p, chord, seed):
    # a unit direction at about ``chord`` from p, off along a random tangent
    t = np.cross(p, np.random.default_rng(seed).standard_normal(3))
    q = p + chord * t / np.linalg.norm(t)
    return q / np.linalg.norm(q)


def _min_chord(pts):
    # brute force over all pairs
    d = pts[:, None, :] - pts[None, :, :]
    chord = np.sqrt((d * d).sum(axis=-1))
    return chord[np.triu_indices(len(pts), 1)].min()


def test_knotset_tolerance_is_a_chord_of_1e_10():
    pts = fibonacci_lattice(50).points
    p = pts[7]
    with pytest.raises(ValueError, match="duplicate knots"):
        KnotSet(np.vstack([pts, p]))
    near = _near(p, 3e-11, 0)
    assert 2e-11 < np.linalg.norm(near - p) < 4e-11
    with pytest.raises(ValueError, match="duplicate knots"):
        KnotSet(np.vstack([pts, near]))
    apart = _near(p, 3e-10, 1)
    assert len(KnotSet(np.vstack([pts, apart]))) == 51


def _ring_sets():
    # equal-latitude rings: every point of a ring shares its z coordinate
    lon = np.arange(360.0)
    return [direction_from_lonlat(lon, np.full(lon.size, lat)) for lat in (0.0, 30.0, -60.0)]


@pytest.mark.parametrize("kind", ["random", "fibonacci", "ring"])
def test_knotset_agrees_with_brute_force_min_chord(kind):
    rng = np.random.default_rng(11)
    if kind == "random":
        bases = [rng.standard_normal((n, 3)) for n in (40, 300)]
        bases = [b / np.linalg.norm(b, axis=1, keepdims=True) for b in bases]
    elif kind == "fibonacci":
        bases = [fibonacci_lattice(n).points for n in (2, 77, 400)]
    else:
        bases = _ring_sets()
    for trial, base in enumerate(bases * 8):
        # a cluster of up to 5 points around one knot, at chords from 1e-11
        # to 1e-8, so that some sets hold a pair within 1e-10 and some not
        i = rng.integers(len(base))
        cluster = [_near(base[i], 10.0 ** rng.uniform(-11, -8), 100 * trial + j)
                   for j in range(rng.integers(1, 6))]
        pts = np.vstack([base, cluster])
        pts = pts[rng.permutation(len(pts))]
        if _min_chord(pts) <= 1e-10:
            with pytest.raises(ValueError, match="duplicate knots"):
                KnotSet(pts)
        else:
            assert len(KnotSet(pts)) == len(pts)
        # the base set alone is distinct, as the brute force finds too
        assert _min_chord(base) > 1e-10 and len(KnotSet(base)) == len(base)


def test_knotset_keeps_its_own_read_only_copy():
    p = fibonacci_lattice(10).points.copy()
    knots = KnotSet(p)
    assert p.flags.writeable and not knots.points.flags.writeable
    p[0] = -p[0]
    assert np.array_equal(knots.points[0], -p[0])


def test_knotset_rejects_non_unit():
    with pytest.raises(ValueError):
        KnotSet([[0, 0, 2.0]])


def test_nodal_width_single_knot():
    # probe lattice contains the exact south pole, so the antipode is hit
    knots = KnotSet([[0.0, 0.0, 1.0]])
    assert nodal_width(knots, 2000) == pytest.approx(2.0, abs=1e-9)


def test_nodal_width_antipodal_pair():
    knots = KnotSet([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    # max-min is attained on the equator at sqrt(2); probe estimate is a
    # lower bound converging quadratically in probe spacing
    w = nodal_width(knots, 20000)
    assert w <= np.sqrt(2.0) + 1e-12
    assert w == pytest.approx(np.sqrt(2.0), abs=1e-2)


def test_nodal_width_fibonacci_1000():
    w = nodal_width(fibonacci_lattice(1000), 100000)
    assert w == pytest.approx(2.728 / np.sqrt(1000), rel=0.10)


def test_nodal_width_monotone_in_N():
    widths = [nodal_width(fibonacci_lattice(N)) for N in (50, 200, 800)]
    assert widths[0] >= widths[1] >= widths[2]


def test_nodal_width_empty_rejected():
    with pytest.raises(ValueError):
        nodal_width(np.zeros((0, 3)))


def test_patch_grid_counts():
    assert len(equal_angle_patch_grid(1, 1)) == 1
    grid = equal_angle_patch_grid(2, 2)
    assert len(grid) == 4
    for b in grid:
        assert b.lon_max - b.lon_min == pytest.approx(180.0)
        assert b.lat_max - b.lat_min == pytest.approx(90.0)
    grid = equal_angle_patch_grid(120, 240)
    assert len(grid) == 28800
    assert grid[0].lon_max - grid[0].lon_min == pytest.approx(1.5)
    assert grid[0].lat_max - grid[0].lat_min == pytest.approx(1.5)


@pytest.mark.parametrize("n_lat,n_lon", [(1, 1), (3, 5), (17, 9)])
def test_patch_areas_sum_to_sphere(n_lat, n_lon):
    total = sum(b.area for b in equal_angle_patch_grid(n_lat, n_lon))
    assert total == pytest.approx(4 * np.pi, abs=1e-9)


def test_patch_grid_rejects_zero():
    with pytest.raises(ValueError):
        equal_angle_patch_grid(0, 4)


def test_patch_bounds_validation():
    with pytest.raises(ValueError):
        PatchBounds(10, 10, 0, 1)
    with pytest.raises(ValueError):
        PatchBounds(0, 1, -91, 0)
    with pytest.raises(ValueError):
        PatchBounds(0, 400, 0, 1)
