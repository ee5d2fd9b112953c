import tracemalloc

import numpy as np
import pytest
from oracles import naive_spline_sum

import sphsplines.spline as spline
from sphsplines import gram
from sphsplines.kernels import ZonalKernel, matern_zonal, wendland_zonal
from sphsplines.sphere import KnotSet, direction_from_lonlat, fibonacci_lattice
from sphsplines.spline import (
    RasterGrid,
    SplineField,
    evaluate,
    native_norm,
    sparsity_report,
)
from sphsplines.gram import knot_gram


def random_directions(M, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((M, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_zero_field_evaluates_to_zero():
    f = SplineField(matern_zonal(1.5, 0.2), fibonacci_lattice(20), np.zeros(20))
    np.testing.assert_array_equal(evaluate(f, random_directions(10, 0)), np.zeros(10))


def test_field_keeps_its_own_read_only_coefficients():
    knots = fibonacci_lattice(20)
    c = np.ones(20)
    f = SplineField(matern_zonal(1.5, 0.2), knots, c)
    before = evaluate(f, knots.points[0])
    c[:] = 0.0
    assert evaluate(f, knots.points[0]) == before != 0.0
    assert not f.coeffs.flags.writeable


def test_single_unit_coefficient_is_kernel_trace():
    kern = matern_zonal(1.5, 0.2)
    knot = np.array([[0.0, 0.0, 1.0]])
    f = SplineField(kern, KnotSet(knot), np.array([1.0]))
    targets = random_directions(50, 1)
    np.testing.assert_allclose(
        evaluate(f, targets), kern(targets @ knot[0]), atol=1e-15
    )
    assert evaluate(f, knot[0]) == 1.0  # at the knot itself


def test_wendland_antipode_is_exact_zero():
    f = SplineField(
        wendland_zonal(3, 1, 0.4),
        KnotSet(np.array([[0.0, 0.0, 1.0]])),
        np.array([1.0]),
    )
    assert evaluate(f, np.array([0.0, 0.0, -1.0])) == 0.0


def test_evaluate_matches_naive_oracle():
    kern = matern_zonal(2.5, 0.3, convention="eq60")
    knots = fibonacci_lattice(5)
    coeffs = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    f = SplineField(kern, knots, coeffs)
    targets = random_directions(3, 2)
    ref = naive_spline_sum(kern, knots.points, coeffs, targets)
    np.testing.assert_allclose(evaluate(f, targets), ref, atol=1e-12)


def test_pruned_evaluation_matches_full_sum():
    kern = wendland_zonal(3, 1, 0.3)
    knots = fibonacci_lattice(500)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(500)
    f = SplineField(kern, knots, coeffs)
    targets = random_directions(200, 4)
    ref = naive_spline_sum(kern, knots.points, coeffs, targets)
    np.testing.assert_allclose(evaluate(f, targets), ref, atol=1e-12)


def test_series_kernel_evaluation_memory_is_bounded():
    # a degree-512 series kernel on 2e4 targets stays within tens of MB
    kern = ZonalKernel.from_series(matern_zonal(2.5, 0.3).series())
    f = SplineField(kern, fibonacci_lattice(20), np.ones(20))
    targets = random_directions(20_000, 9)
    tracemalloc.start()
    try:
        evaluate(f, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_evaluate_linear_in_coefficients():
    kern = matern_zonal(1.5, 0.25)
    knots = fibonacci_lattice(30)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(30), rng.standard_normal(30)
    alpha, beta = 1.7, -0.3
    targets = random_directions(40, 6)
    combo = evaluate(SplineField(kern, knots, alpha * a + beta * b), targets)
    parts = alpha * evaluate(SplineField(kern, knots, a), targets) + beta * evaluate(
        SplineField(kern, knots, b), targets
    )
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SplineField(matern_zonal(1.5, 0.2), fibonacci_lattice(10), np.zeros(11))
    with pytest.raises(ValueError):
        SplineField(matern_zonal(1.5, 0.2), fibonacci_lattice(2), [1.0, np.nan])


def test_native_norm_simple_cases():
    kern = matern_zonal(1.5, 0.2)
    one = KnotSet(np.array([[0.0, 0.0, 1.0]]))
    assert native_norm(SplineField(kern, one, [0.0]), knot_gram(kern, one)) == 0.0
    assert native_norm(SplineField(kern, one, [-3.0]), knot_gram(kern, one)) == 3.0
    wend = wendland_zonal(3, 1, 0.5)
    two = KnotSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    f = SplineField(wend, two, [3.0, 4.0])
    np.testing.assert_allclose(native_norm(f, knot_gram(wend, two)), 5.0)


def test_native_norm_reproducing_identity():
    # c^T K c equals the field paired with its own coefficients at the knots
    kern = matern_zonal(1.5, 0.2)
    knots = fibonacci_lattice(50)
    rng = np.random.default_rng(8)
    c = rng.standard_normal(50)
    f = SplineField(kern, knots, c)
    K = knot_gram(kern, knots)
    lhs = native_norm(f, K) ** 2
    rhs = evaluate(f, knots.points) @ c
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_native_norm_rejects_negative_form():
    kern = matern_zonal(1.5, 0.2)
    knots = fibonacci_lattice(4)
    f = SplineField(kern, knots, np.ones(4))
    with pytest.raises(ValueError, match="negative"):
        native_norm(f, -np.eye(4))


def test_sparsity_report():
    kern = matern_zonal(1.5, 0.2)
    knots = fibonacci_lattice(2)
    assert sparsity_report(SplineField(kern, knots, np.zeros(2))).count == 0
    rep = sparsity_report(SplineField(kern, knots, [1.0, 1e-9]), rel_threshold=1e-4)
    assert rep.count == 1 and rep.indices == [0]
    with pytest.raises(ValueError):
        sparsity_report(SplineField(kern, knots, [1.0, 0.0]), rel_threshold=1.5)


def test_field_callable_and_scalar_return():
    kern = matern_zonal(1.5, 0.2)
    f = SplineField(kern, fibonacci_lattice(10), np.ones(10))
    target = np.array([0.0, 0.0, 1.0])
    scalar = f(target)
    assert isinstance(scalar, float)
    vec = f(target.reshape(1, 3))
    assert vec.shape == (1,) and vec[0] == scalar


def _cell_directions(grid):
    """The unit directions of a grid's cells, row-major."""
    lon, lat = np.meshgrid(grid.lon, grid.lat)
    return direction_from_lonlat(lon.ravel(), lat.ravel())


@pytest.mark.parametrize("family", ["wendland", "matern"])
def test_raster_grid_keeps_its_blocks_and_gives_the_evaluate_bits(family, monkeypatch):
    # a grid builds its kernel blocks once; every later call only multiplies
    # them into its coefficients, and gives the bits of evaluate
    if family == "wendland":
        monkeypatch.setattr(gram, "BLOCK_ENTRIES", 4000)  # several CSR blocks
        kernel = wendland_zonal(3, 1, 0.4)
    else:
        kernel = matern_zonal(2.5, 0.3)  # two dense blocks
    builds = []
    stream = spline.kernel_blocks
    monkeypatch.setattr(spline, "kernel_blocks",
                        lambda *args: builds.append(1) or stream(*args))
    knots = fibonacci_lattice(200)
    grid = RasterGrid(30, 60, kernel, knots)
    cells = _cell_directions(grid)
    rng = np.random.default_rng(3)
    for _ in range(3):
        coeffs = rng.standard_normal(200)
        values = grid.values(coeffs)
        assert values.tobytes() == evaluate(SplineField(kernel, knots, coeffs), cells).tobytes()
    assert len(builds) == 1 + 3  # the grid's one build, then evaluate's three
    assert len(grid.blocks) >= 2
    assert grid.record == {"stored": True,
                           "entries": sum(block.size for _, block in grid.blocks)}
    if family == "matern":
        assert grid.record["entries"] == 30 * 60 * 200


def test_raster_grid_over_the_cap_streams_every_call(monkeypatch):
    # 1800 cells x 2000 Matern knots: 3.6M kernel values, over the cap, so
    # the grid keeps no block; with blocks of 2**14 values, both calls
    # allocate well under the cap's bytes as float64 (keeping every block
    # would take 28.8 MB)
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", 1 << 14)
    kernel, knots = matern_zonal(2.5, 0.3), fibonacci_lattice(2000)
    assert 1800 * 2000 > spline.RASTER_ENTRIES
    grid = RasterGrid(30, 60, kernel, knots)
    coeffs = np.random.default_rng(4).standard_normal(2000)
    tracemalloc.start()
    try:
        first, second = grid.values(coeffs), grid.values(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spline.RASTER_ENTRIES
    assert grid.record == {"stored": False, "entries": 1800 * 2000}
    assert grid.blocks is None
    expected = evaluate(SplineField(kernel, knots, coeffs), _cell_directions(grid))
    assert first.tobytes() == second.tobytes() == expected.tobytes()


def test_raster_grid_drops_its_blocks_past_the_cap(monkeypatch):
    # 400 Wendland knots crowded within 10 degrees of the north pole: the
    # support caps of the polar cells hold far more knots than the uniform
    # expectation, so the first call keeps blocks until they pass the cap,
    # then drops them, and every call streams
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", 4000)
    kernel = wendland_zonal(3, 1, 0.3)
    n = np.arange(400) + 0.5
    z = 1.0 - n / 400 * (1.0 - np.cos(np.radians(10.0)))
    phi = n * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    knots = KnotSet(np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z]))
    monkeypatch.setattr(spline, "RASTER_ENTRIES", int(2 * 1800 * spline.row_entries(kernel, 400)))
    grid = RasterGrid(30, 60, kernel, knots)
    coeffs = np.random.default_rng(5).standard_normal(400)
    first, second = grid.values(coeffs), grid.values(coeffs)
    assert grid.record["stored"] is False and grid.blocks is None
    assert grid.record["entries"] > spline.RASTER_ENTRIES
    expected = evaluate(SplineField(kernel, knots, coeffs), _cell_directions(grid))
    assert first.tobytes() == second.tobytes() == expected.tobytes()
