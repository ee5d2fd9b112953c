"""Library arguments follow the run config's integer and number rules.

Every size, order, scale and seed a public function or constructor takes
goes through `sphere.check_integer` or `sphere.check_number`: a float is
never an integer, a bool or a string is never a number, a number is
finite, and a value out of range fails, each with a ValueError naming the
argument.  An AST guard keeps hand-written ``int(p)``/``float(p)`` casts of
parameters out of the package.
"""

import ast
import math
import os
import pathlib
import re

import numpy as np
import pytest

from sphsplines import (
    DiracFunctional,
    KnotSet,
    L2Ball,
    LeastSquares,
    PatchBounds,
    SolverConfig,
    SplineField,
    direction_from_lonlat,
    epsilon_for_fwhm,
    equal_angle_patch_grid,
    fibonacci_lattice,
    fourier_legendre,
    gauss_legendre,
    green_series,
    legendre_all,
    lipschitz_estimate,
    matern_zonal,
    nodal_width,
    prox_conjugate,
    prox_cost,
    soft_threshold,
    sobolev_green_zonal,
    sobolev_symbol,
    sparsity_report,
    tikhonov_solve,
    wendland_construct,
    wendland_zonal,
)
from sphsplines.kernels import matern_halfinteger
from sphsplines.pipeline import (
    add_gaussian_noise,
    export_raster,
    plant_spline,
    poisson_counts,
    random_directions,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphsplines"

# the rules themselves, and a record of solver output rather than user input
EXEMPT = {"check_integer", "check_number", "SolverResult"}


def hand_casts(source):
    """(line, function, parameter) of each bare ``int(p)`` or ``float(p)``
    whose argument ``p`` is a parameter of the public function, or of the
    ``__init__`` or public method of the public class, that contains it."""
    functions = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name not in EXEMPT:
            functions += [("%s.%s" % (node.name, f.name), f) for f in node.body
                          if isinstance(f, ast.FunctionDef)
                          and (f.name == "__init__" or not f.name.startswith("_"))]
    found = []
    for name, fn in functions:
        if name in EXEMPT:
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        found += [(node.lineno, name, node.args[0].id) for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("int", "float") and len(node.args) == 1
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in params]
    return sorted(found)


def test_checker_flags_a_hand_cast():
    source = ("def public(n, x):\n    return int(n) + float(x) + int(2.5)\n\n\n"
              "def _private(n):\n    return int(n)\n\n\n"
              "class Box:\n    def __init__(self, size):\n        self.size = float(size)\n\n"
              "    def grow(self, by):\n        return int(by)\n\n"
              "    def _inner(self, by):\n        return int(by)\n\n\n"
              "class SolverResult:\n    def __init__(self, n):\n        self.n = int(n)\n\n\n"
              "def check_integer(value):\n    return int(value)\n")
    assert hand_casts(source) == [(2, "public", "n"), (2, "public", "x"),
                                  (11, "Box.__init__", "size"), (14, "Box.grow", "by")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_hand_casts_of_parameters(path):
    assert hand_casts(path.read_text()) == []


def test_the_rules_have_one_definition():
    defined = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)
               and node.name in ("check_integer", "check_number")]
    assert defined == [("sphere.py", "check_integer"), ("sphere.py", "check_number")]


# ------------------------------------------------------ the rules at work


def _field():
    return SplineField(wendland_zonal(3, 1, 0.5), fibonacci_lattice(5), np.ones(5))


def _matern(epsilon=0.3):
    return matern_zonal(2.5, epsilon)


# id -> (call of the bad value, the name its message starts with, lowest legal value)
INTEGERS = {
    "fibonacci_lattice": (fibonacci_lattice, "N", 1),
    "nodal_width": (lambda v: nodal_width(fibonacci_lattice(4), v), "probe_resolution", 1),
    "patch_grid_n_lat": (lambda v: equal_angle_patch_grid(v, 3), "n_lat", 1),
    "patch_grid_n_lon": (lambda v: equal_angle_patch_grid(3, v), "n_lon", 1),
    "legendre_all": (lambda v: legendre_all(v, 0.5), "N_max", 0),
    "gauss_legendre": (gauss_legendre, "Q", 1),
    "fourier_legendre_n_max": (lambda v: fourier_legendre(_matern(), v, 20), "N_max", 0),
    "fourier_legendre_q": (lambda v: fourier_legendre(_matern(), 0, v), "Q", 1),
    "series_n_max": (lambda v: _matern().series(v, 20), "n_max", 0),
    "series_quad_order": (lambda v: _matern().series(0, v), "quad_order", 1),
    "matern_halfinteger": (lambda v: matern_halfinteger(v, 0.5), "p", 0),
    "wendland_construct_d": (lambda v: wendland_construct(v, 1), "d", 1),
    "wendland_construct_k": (lambda v: wendland_construct(3, v), "k", 0),
    "wendland_zonal_d": (lambda v: wendland_zonal(v, 1, 0.3), "d", 3),
    "wendland_zonal_k": (lambda v: wendland_zonal(3, v, 0.3), "k", 0),
    "lipschitz_estimate": (lambda v: lipschitz_estimate(_matern(), v), "grid", 100),
    "export_raster_n_lat": (lambda v: export_raster(_field(), v, 4, os.devnull), "n_lat", 2),
    "export_raster_n_lon": (lambda v: export_raster(_field(), 4, v, os.devnull), "n_lon", 2),
    "plant_spline_n_bumps": (
        lambda v: plant_spline(_matern(), fibonacci_lattice(10), v, (0.5, 2.0), 0),
        "n_bumps", 1),
    "random_directions_n": (lambda v: random_directions(v, 0), "n", 1),
    "plant_spline_seed": (
        lambda v: plant_spline(_matern(), fibonacci_lattice(10), 2, (0.5, 2.0), v),
        "seed", 0),
    "add_gaussian_noise_seed": (lambda v: add_gaussian_noise(np.ones(3), 20.0, v), "seed", 0),
    "poisson_counts_seed": (lambda v: poisson_counts(np.ones(3), v), "seed", 0),
    "random_directions_seed": (lambda v: random_directions(3, v), "seed", 0),
}

# id -> (call of the bad value, the name, a value out of its range)
NUMBERS = {
    "matern_zonal_beta": (lambda v: matern_zonal(v, 0.3), "beta", math.inf),
    "matern_zonal_epsilon": (_matern, "epsilon", 0.0),
    "wendland_zonal_epsilon": (lambda v: wendland_zonal(3, 1, v), "epsilon", 2.9),
    "sobolev_green_zonal": (sobolev_green_zonal, "beta", math.nan),
    "epsilon_for_fwhm": (lambda v: epsilon_for_fwhm(_matern, v), "fwhm_deg", 0.0),
    "sobolev_symbol": (lambda v: sobolev_symbol(v, 3), "beta", 0.0),
    "green_series_beta": (green_series, "beta", math.inf),
    "green_series_tol": (lambda v: green_series(2.0, tol=v), "tol", 0.0),
    "patch_bounds_lon_min": (lambda v: PatchBounds(v, 10, 0, 10), "lon_min", math.nan),
    "patch_bounds_lon_max": (lambda v: PatchBounds(0, v, 0, 10), "lon_max", math.inf),
    "patch_bounds_lat_min": (lambda v: PatchBounds(0, 10, v, 10), "lat_min", -math.inf),
    "patch_bounds_lat_max": (lambda v: PatchBounds(0, 10, 0, v), "lat_max", math.nan),
    "l2ball_radius": (lambda v: L2Ball(np.ones(2), v), "radius", 0.0),
    "tikhonov_solve_mu": (lambda v: tikhonov_solve(np.eye(2), np.ones(2), v), "mu", 0.0),
    "sparsity_report": (lambda v: sparsity_report(_field(), v), "rel_threshold", 1.0),
    "add_gaussian_noise_psnr_db": (
        lambda v: add_gaussian_noise(np.ones(3), v, 0), "psnr_db", math.nan),
    "solver_config_lam": (SolverConfig, "lam", -1.0),
    "solver_config_eps_stop": (lambda v: SolverConfig(1.0, eps_stop=v), "eps_stop", 0.0),
    "prox_cost_tau": (lambda v: prox_cost(LeastSquares(np.ones(2)), v, np.ones(2)),
                      "tau", math.nan),
    "prox_conjugate_sigma": (
        lambda v: prox_conjugate(LeastSquares(np.ones(2)), v, np.ones(2)), "sigma", math.nan),
}

# numbers whose range holds +inf, so the rule checks finiteness apart from it
UNBOUNDED = ("epsilon_for_fwhm", "green_series_tol", "l2ball_radius", "tikhonov_solve_mu",
             "solver_config_lam", "solver_config_eps_stop", "prox_cost_tau",
             "prox_conjugate_sigma")

CASES = (
    [pytest.param(call, name, bad, id="%s-%s" % (key, label))
     for key, (call, name, lowest) in INTEGERS.items()
     for label, bad in (("float", 2.9), ("bool", True), ("str", "8"),
                        ("below", lowest - 1))]
    + [pytest.param(call, name, bad, id="%s-%s" % (key, label))
       for key, (call, name, outside) in NUMBERS.items()
       for label, bad in (("bool", True), ("str", "8"), ("outside", outside))]
    + [pytest.param(INTEGERS[key][0], INTEGERS[key][1], 2.5, id=key + "-2.5")
       for key in ("export_raster_n_lat", "export_raster_n_lon")]
    + [pytest.param(NUMBERS[key][0], NUMBERS[key][1], math.inf, id=key + "-inf")
       for key in UNBOUNDED]
)


@pytest.mark.parametrize("call, name, bad", CASES)
def test_bad_argument_fails_naming_it(call, name, bad):
    with pytest.raises(ValueError, match="^%s must be " % re.escape(name)):
        call(bad)


# calls that check a range in place, by a comparison that NaN fails: each
# raises unless the comparison holds, so NaN (and a non-finite longitude) fails
NAN_CALLS = {
    "knot_set": lambda: KnotSet([[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "dirac_functional": lambda: DiracFunctional([math.nan, 0.0, 0.0]),
    "direction_from_lonlat_lat": lambda: direction_from_lonlat(0.0, math.nan),
    "direction_from_lonlat_lon": lambda: direction_from_lonlat(math.nan, 0.0),
    "direction_from_lonlat_lon_inf": lambda: direction_from_lonlat(math.inf, 0.0),
    "soft_threshold": lambda: soft_threshold(np.ones(2), math.nan),
    "add_gaussian_noise": lambda: add_gaussian_noise([math.nan, 1.0], 30.0, 0),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_non_finite_value_fails_a_range_check(call):
    with pytest.raises(ValueError):
        call()


def test_cached_rule_rejects_a_value_equal_to_a_cached_one():
    # 1 == True and 3 == 3.0 hash alike, so a cache keyed by value alone
    # would hand back the rule of 1 or 3 without checking
    gauss_legendre(1), gauss_legendre(3)
    kernel = _matern()
    kernel.series(4, 20)
    for call in (lambda: gauss_legendre(True), lambda: gauss_legendre(3.0),
                 lambda: kernel.series(4.0, 20), lambda: kernel.series(4, 20.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_integer_arguments_take_numpy_integers():
    assert len(fibonacci_lattice(np.int64(7))) == 7
    assert gauss_legendre(np.int32(4)).nodes.size == 4
    assert len(equal_angle_patch_grid(np.int64(2), np.int16(3))) == 6
