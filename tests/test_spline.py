import tracemalloc

import numpy as np
import pytest
from oracles import naive_spline_sum

from sphsplines.kernels import ZonalKernel, matern_zonal, wendland_zonal
from sphsplines.sphere import KnotSet, fibonacci_lattice
from sphsplines.spline import (
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
