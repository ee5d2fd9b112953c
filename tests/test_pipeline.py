"""End-to-end run tests: CSV formats, synthetic sources, manifests, rasters."""

import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sphsplines import gram
from sphsplines.gram import DiracFunctional, assemble_gram, spectral_norm
from sphsplines.kernels import matern_zonal, self_convolve, wendland_zonal
from sphsplines.legendre import tabulate
from sphsplines.pipeline import (
    RunConfig,
    add_gaussian_noise,
    build_kernel,
    export_raster,
    load_coefficients_csv,
    load_patch_counts_csv,
    load_scatter_csv,
    plant_spline,
    poisson_counts,
    run_reconstruction,
    save_coefficients_csv,
    save_patch_counts_csv,
    save_scatter_csv,
    synthetic_measurements,
)
from sphsplines.prox import ExactMatch, L2Ball
from sphsplines.sphere import (
    KnotSet,
    PatchBounds,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
    lonlat_from_direction,
)
from sphsplines.spline import SplineField, evaluate

import sphsplines.pipeline as pipeline


# ------------------------------------------------------------- scatter CSV


def test_scatter_roundtrip_lossless(tmp_path):
    rng = np.random.default_rng(0)
    lon = rng.uniform(-180, 180, 50)
    lat = rng.uniform(-90, 90, 50)
    val = rng.standard_normal(50) * 1e3
    path = tmp_path / "s.csv"
    save_scatter_csv(path, lon, lat, val)
    dirs, back = load_scatter_csv(path)
    lon2, lat2 = lonlat_from_direction(dirs)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, val)
    assert np.allclose(lon2, lon, atol=1e-12)
    assert np.allclose(lat2, lat, atol=1e-12)


def test_scatter_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_scatter_csv(path)


def test_scatter_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lon_deg,lat_deg,value\n0,0,1\n10,oops,2\n")
    with pytest.raises(ValueError, match="line 3"):
        load_scatter_csv(path)


def test_scatter_latitude_range_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lon_deg,lat_deg,value\n0,95,1\n")
    with pytest.raises(ValueError, match="line 2.*latitude"):
        load_scatter_csv(path)


@pytest.mark.parametrize("load, text, field", [
    (load_scatter_csv, "lon_deg,lat_deg,value\n0,0,1\ninf,10,2\n", "lon_deg"),
    (load_scatter_csv, "lon_deg,lat_deg,value\n0,0,1\n10,10,nan\n", "value"),
    (load_patch_counts_csv,
     "lon_min,lon_max,lat_min,lat_max,count\n0,10,0,10,1\n0,-inf,0,10,1\n", "lon_max"),
    (load_coefficients_csv,
     "index,lon_deg,lat_deg,coeff\n0,0,0,1\n1,10,10,NaN\n", "coeff"),
], ids=["scatter_inf_lon", "scatter_nan_value", "counts_inf_edge", "coeff_nan"])
def test_tables_reject_nonfinite_fields(tmp_path, load, text, field):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="t.csv line 3: %s must be a finite" % field):
        load(path)


def test_coefficients_latitude_range_checked(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("index,lon_deg,lat_deg,coeff\n0,0,0,1\n1,0,95,1\n")
    with pytest.raises(ValueError, match="c.csv line 3: latitude 95"):
        load_coefficients_csv(path)


def test_scatter_empty_data_is_valid(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("lon_deg,lat_deg,value\n")
    dirs, values = load_scatter_csv(path)
    assert dirs.shape == (0, 3) and values.shape == (0,)


# -------------------------------------------------------------- counts CSV


def test_counts_roundtrip_and_overlap_ok(tmp_path):
    bounds = [PatchBounds(0, 20, 0, 10), PatchBounds(10, 30, 5, 15)]  # overlap
    counts = np.array([3, 0])
    path = tmp_path / "c.csv"
    save_patch_counts_csv(path, bounds, counts)
    back_bounds, back_counts = load_patch_counts_csv(path)
    assert np.array_equal(back_counts, counts)
    assert back_bounds[1].lon_min == 10 and back_bounds[1].lat_max == 15


def test_counts_negative_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("lon_min,lon_max,lat_min,lat_max,count\n0,10,0,10,-1\n")
    with pytest.raises(ValueError, match="line 2.*negative"):
        load_patch_counts_csv(path)


def test_counts_noninteger_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("lon_min,lon_max,lat_min,lat_max,count\n0,10,0,10,2.5\n")
    with pytest.raises(ValueError, match="line 2.*integer"):
        load_patch_counts_csv(path)


@pytest.mark.parametrize("save", [
    lambda path: save_scatter_csv(path, [0, 10, 20], [0, 5, 9], [1, 2]),
    lambda path: save_patch_counts_csv(path, equal_angle_patch_grid(1, 3), [4]),
], ids=["scatter", "counts"])
def test_writers_reject_columns_of_unequal_lengths(tmp_path, save):
    # a row-zipping writer would drop the rows past the shortest column; the
    # columns are checked before the file is opened, so none is created
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        save(path)
    assert not path.exists()


@pytest.mark.parametrize("save, reject", [
    (lambda path: save_scatter_csv(path, [0, 10], [0, 5], [1, 2]),
     lambda path: save_scatter_csv(path, [0, 10], [0, 5], [1])),
    (lambda path: save_patch_counts_csv(path, equal_angle_patch_grid(1, 2), [4, 2]),
     lambda path: save_patch_counts_csv(path, equal_angle_patch_grid(1, 3), [4])),
    (lambda path: save_coefficients_csv(path, SplineField(
        matern_zonal(1.5, 0.2), fibonacci_lattice(3), [1.0, -2.0, 0.5])),
     # a field whose coefficients do not match its knots
     lambda path: save_coefficients_csv(path, SimpleNamespace(
         knots=fibonacci_lattice(3), coeffs=np.zeros(2)))),
], ids=["scatter", "counts", "coefficients"])
def test_rejected_save_leaves_an_existing_file_unchanged(tmp_path, save, reject):
    path = tmp_path / "t.csv"
    save(path)
    written = path.read_bytes()
    with pytest.raises(ValueError, match="unequal lengths"):
        reject(path)
    assert path.read_bytes() == written


def test_write_table_writes_text_columns_as_they_are(tmp_path):
    # a str column is written as it is, beside %d and FLOAT_FMT columns,
    # and is checked with the others before the file is opened
    path = tmp_path / "t.csv"
    text = np.array(["-179.5", "0.10000000000000001"])
    pipeline.write_table(path, ["a", "b", "c"], [text, np.array([3, 4]), [0.1, 2.0]])
    assert path.read_text() == "a,b,c\n-179.5,3,0.10000000000000001\n0.10000000000000001,4,2\n"
    written = path.read_bytes()
    with pytest.raises(ValueError, match="unequal lengths"):
        pipeline.write_table(path, ["a", "c"], [text, [1.0]])
    assert path.read_bytes() == written


@pytest.mark.parametrize("count", [2.7, -1, np.nan, np.inf])
def test_counts_writer_rejects_what_the_reader_rejects(tmp_path, count):
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=r"counts\[1\] must be a nonnegative integer"):
        save_patch_counts_csv(path, equal_angle_patch_grid(1, 3), [4, count, 0])
    assert not path.exists()
    # integral floats are counts, written as integers
    save_patch_counts_csv(path, equal_angle_patch_grid(1, 3), [4.0, 2.0, 0.0])
    assert path.read_text().splitlines()[1:] == [
        "-180,-60,-90,90,4", "-60,60,-90,90,2", "60,180,-90,90,0"]
    assert np.array_equal(load_patch_counts_csv(path)[1], [4, 2, 0])


def test_counts_full_resolution_grid_parses_fast(tmp_path):
    # 1.5 degree global grid: 120 x 240 = 28800 rows
    patches = equal_angle_patch_grid(120, 240)
    counts = np.arange(len(patches)) % 7
    path = tmp_path / "grid.csv"
    save_patch_counts_csv(path, patches, counts)
    start = time.perf_counter()
    bounds, back = load_patch_counts_csv(path)
    elapsed = time.perf_counter() - start
    assert len(bounds) == 28800
    assert np.array_equal(back, counts)
    assert elapsed < 1.0


# (file text, or None for no file; the call on its path; the message) of the
# reader and source errors no other test reaches
READER_ERRORS = {
    "field_count": ("lon_deg,lat_deg,value\n0,0,1\n0,0\n", load_scatter_csv,
                    r"t\.csv line 3: expected 3 fields, got 2$"),
    "blank_row_skipped": ("lon_deg,lat_deg,value\n0,0,1\n\n0,0,1,2\n", load_scatter_csv,
                          r"t\.csv line 4: expected 3 fields, got 4$"),
    "patch_bounds": ("lon_min,lon_max,lat_min,lat_max,count\n0,10,0,10,1\n10,0,0,10,1\n",
                     load_patch_counts_csv, r"t\.csv line 3: need lon_min < lon_max"),
    "path_key": (None,
                 lambda path: RunConfig(_scatter_selftest_config(path, outputs={"directory": 3})),
                 r"^outputs\.directory must be a string$"),
    "empty_values": (None, lambda path: add_gaussian_noise([], 20.0, 0),
                     r"^values must be nonempty$"),
}


@pytest.mark.parametrize("text, call, message", READER_ERRORS.values(),
                         ids=READER_ERRORS.keys())
def test_reader_errors_name_the_bad_input(tmp_path, text, call, message):
    path = tmp_path / "t.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=message):
        call(path)


# -------------------------------------------------------- synthetic sources


def test_plant_spline_deterministic():
    kernel = matern_zonal(2.5, 0.3, convention="eq60")
    pool = fibonacci_lattice(100)
    a = plant_spline(kernel, pool, 6, (0.5, 2.0), 42)
    b = plant_spline(kernel, pool, 6, (0.5, 2.0), 42)
    c = plant_spline(kernel, pool, 6, (0.5, 2.0), 43)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert np.count_nonzero(a.coeffs) == 6
    nz = a.coeffs[a.coeffs != 0]
    assert np.all((nz >= 0.5) & (nz <= 2.0))


def test_plant_spline_validation():
    kernel = matern_zonal(2.5, 0.3)
    pool = fibonacci_lattice(10)
    with pytest.raises(ValueError, match="n_bumps"):
        plant_spline(kernel, pool, 0, (0, 1), 0)
    with pytest.raises(ValueError, match="pool"):
        plant_spline(kernel, pool, 11, (0, 1), 0)
    with pytest.raises(ValueError, match="increasing"):
        plant_spline(kernel, pool, 2, (1.0, 1.0), 0)


def test_noise_psnr_definition():
    rng = np.random.default_rng(5)
    values = rng.uniform(1.0, 3.0, 100_000)
    peak = values.max()
    psnr = 12.0
    noisy = add_gaussian_noise(values, psnr, 7)
    sigma_emp = np.std(noisy - values)
    sigma_target = peak / 10 ** (psnr / 20)
    assert abs(sigma_emp - sigma_target) < 0.02 * sigma_target


def test_noise_extreme_psnr_is_identity():
    values = np.array([1.0, -2.0, 0.5])
    noisy = add_gaussian_noise(values, 1e9, 0)
    assert np.max(np.abs(noisy - values)) < 1e-12


def test_noise_rejects_zero_signal():
    with pytest.raises(ValueError, match="all-zero"):
        add_gaussian_noise(np.zeros(4), 20.0, 0)


def test_poisson_counts_mean():
    rates = np.full(100_000, 7.0)
    counts = poisson_counts(rates, 3)
    assert counts.min() >= 0
    assert abs(counts.mean() - 7.0) < 0.02 * 7.0


def test_poisson_rejects_negative_rates():
    with pytest.raises(ValueError, match="rates"):
        poisson_counts(np.array([1.0, -0.1]), 0)


# -------------------------------------------------------------- run config


def test_config_requires_single_source():
    base = {
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.3},
        "knots": {"fibonacci": 10},
        "cost": {"kind": "exact"},
        "solver": {"kind": "pds"},
    }
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig({**base, "sampling": {}})
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig({**base, "sampling": {"scatter_csv": "a.csv",
                                        "synthetic": {"kind": "scatter"}}})


def test_config_solver_cost_compatibility():
    base = {
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.3},
        "knots": {"fibonacci": 10},
        "sampling": {"scatter_csv": "a.csv"},
    }
    with pytest.raises(ValueError, match="apgd"):
        RunConfig({**base, "cost": {"kind": "exact"}, "solver": {"kind": "apgd"}})
    with pytest.raises(ValueError, match="mu"):
        RunConfig({**base, "cost": {"kind": "ls"}, "solver": {"kind": "tikhonov"}})
    with pytest.raises(ValueError, match="rho_rel"):
        RunConfig({**base, "cost": {"kind": "l2ball"}, "solver": {"kind": "pds"}})
    cfg = RunConfig({**base, "cost": {"kind": "ls"}, "solver": {"kind": "apgd"},
                     "lambda": 0.1})
    assert cfg["solver"]["kind"] == "apgd"


def test_config_echo_makes_defaults_explicit():
    echo = RunConfig({
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.3},
        "knots": {"fibonacci": 10},
        "sampling": {"synthetic": {"kind": "scatter"}},
        "cost": {"kind": "exact"},
        "solver": {"kind": "pds"},
        "seed": 4,
    })
    assert echo["kernel"]["convention"] == "standard"
    assert echo["eps_stop"] == 1e-4 and echo["max_iter"] == 20000
    synth = echo["sampling"]["synthetic"]
    assert synth["samples"] == 30 and synth["bumps"] == 8
    assert synth["seed"] == 4
    assert echo["outputs"]["coefficients"] == "coefficients.csv"


@pytest.mark.parametrize("key, patch", [
    ("outputs.raster.n_lat", lambda c: c["outputs"].update(
        raster={"n_lat": 1, "n_lon": 8, "path": "r.csv"})),
    ("eps_stop", lambda c: c.update(eps_stop=0)),
    ("max_iter", lambda c: c.update(max_iter=0)),
    ("max_iter", lambda c: c.update(max_iter=True)),
    ("max_iter", lambda c: c.update(max_iter=2.9)),
    ("max_iter", lambda c: c.update(max_iter="50")),
    ("knots.fibonacci", lambda c: c.update(knots={"fibonacci": True})),
    ("seed", lambda c: c.update(seed=2.9)),
    ("seed", lambda c: c.update(seed=True)),
    ("seed", lambda c: c.update(seed="7")),
    ("sampling.synthetic.seed", lambda c: c["sampling"]["synthetic"].update(seed=2.9)),
    ("sampling.synthetic.bumps", lambda c: c["sampling"]["synthetic"].update(bumps=2.9)),
    ("sampling.synthetic.samples",
     lambda c: c["sampling"]["synthetic"].update(samples="240")),
    ("sampling.synthetic.quadrature_order", lambda c: c["sampling"].update(
        synthetic={"kind": "counts", "quadrature_order": 2.9})),
    ("sampling.synthetic.grid[0]", lambda c: c["sampling"].update(
        synthetic={"kind": "counts", "grid": [6.5, 12]})),
    ("sampling.quadrature_order", lambda c: c.update(
        sampling={"patch_csv": "counts.csv", "quadrature_order": 2.9})),
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "l2ball", "rho_rel": "0.1"})),
    ("lambda", lambda c: c.update({"lambda": True})),
    ("lambda", lambda c: c.update({"lambda": "0.1"})),
    ("eps_stop", lambda c: c.update(eps_stop=True)),
    ("solver.mu", lambda c: c.update(cost={"kind": "ls"},
                                     solver={"kind": "tikhonov", "mu": "1e-3"})),
    ("kernel.beta", lambda c: c["kernel"].update(beta="2.5")),
    ("kernel.epsilon", lambda c: c["kernel"].update(epsilon="0.2")),
    ("kernel.tol", lambda c: c.update(
        kernel={"family": "sobolev", "beta": 2.0, "tol": "1e-8"})),
    ("kernel.k", lambda c: c.update(
        kernel={"family": "wendland", "k": 1.9, "epsilon": 0.3})),
    ("kernel.k", lambda c: c.update(
        kernel={"family": "wendland", "k": True, "epsilon": 0.3})),
    ("kernel.d", lambda c: c.update(
        kernel={"family": "wendland", "k": 1, "d": 3.7, "epsilon": 0.3})),
    ("kernel.d", lambda c: c.update(
        kernel={"family": "wendland", "k": 1, "d": 1, "epsilon": 0.3})),
    ("sampling.synthetic.rate_scale", lambda c: c["sampling"].update(
        synthetic={"kind": "counts", "rate_scale": "2"})),
    ("sampling.synthetic.amplitude",
     lambda c: c["sampling"]["synthetic"].update(amplitude=["0.5", "2"])),
    ("sampling.synthetic.amplitude",
     lambda c: c["sampling"]["synthetic"].update(amplitude=[1])),
    ("sampling.quadrature_order", lambda c: c.update(
        sampling={"patch_csv": "counts.csv", "quadrature_order": 1})),
    ("sampling.synthetic.quadrature_order", lambda c: c["sampling"].update(
        synthetic={"kind": "counts", "quadrature_order": 1})),
    ("solver.kind", lambda c: c.update(cost={"kind": "ls"},
                                       solver={"kind": "tikhonov", "mu": 1e-3},
                                       sampling={"patch_csv": "counts.csv"})),
    ("solver.kind", lambda c: c.update(cost={"kind": "kl"},
                                       solver={"kind": "tikhonov", "mu": 1e-3})),
    ("sampling.synthetic.bumps", lambda c: c["sampling"]["synthetic"].update(bumps=81)),
    ("sampling.synthetic.amplitude",
     lambda c: c["sampling"]["synthetic"].update(amplitude=[2.0, 0.5])),
    # numbers must be finite: JSON's NaN and Infinity parse to floats
    ("lambda", lambda c: c.update({"lambda": math.inf})),
    ("eps_stop", lambda c: c.update(eps_stop=math.inf)),
    ("kernel.beta", lambda c: c["kernel"].update(beta=math.nan)),
    ("kernel.beta", lambda c: c["kernel"].update(beta=-math.inf)),
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "l2ball", "rho_rel": math.inf})),
    ("solver.mu", lambda c: c.update(cost={"kind": "ls"},
                                     solver={"kind": "tikhonov", "mu": math.inf})),
    # rho_rel belongs to the l2ball cost and mu to the tikhonov solver only
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "exact", "rho_rel": 0.1})),
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "l1", "rho_rel": 0.1})),
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "kl", "rho_rel": 0.1})),
    ("cost.rho_rel", lambda c: c.update(cost={"kind": "ls", "rho_rel": 0.1})),
    ("solver.mu", lambda c: c.update(solver={"kind": "pds", "mu": 1.0})),
    ("solver.mu", lambda c: c.update(cost={"kind": "ls"},
                                     solver={"kind": "apgd", "mu": 1.0})),
    ("sampling.synthetic.psnr_db",
     lambda c: c["sampling"]["synthetic"].update(psnr_db=math.nan)),
    ("sampling.synthetic.psnr_db",
     lambda c: c["sampling"]["synthetic"].update(psnr_db=math.inf)),
    # values the kernel constructors reject, named by the key they came from
    ("kernel.beta", lambda c: c["kernel"].update(beta=2.0)),
    ("kernel.beta", lambda c: c.update(kernel={"family": "sobolev", "beta": 0.8})),
    ("kernel.fwhm_deg", lambda c: c.update(
        kernel={"family": "wendland", "k": 1, "fwhm_deg": 500})),
], ids=["raster_n_lat", "eps_stop", "max_iter", "max_iter_bool", "max_iter_float",
        "max_iter_str", "fibonacci_bool", "seed_float", "seed_bool", "seed_str",
        "synthetic_seed_float", "bumps_float", "samples_str", "quadrature_order_float",
        "grid_float", "patch_quadrature_order_float", "rho_rel_str", "lambda_bool",
        "lambda_str", "eps_stop_bool", "mu_str", "beta_str", "epsilon_str", "tol_str",
        "k_float", "k_bool", "d_float", "d_one", "rate_scale_str", "amplitude_str",
        "amplitude_one", "patch_quadrature_order_one", "quadrature_order_one",
        "tikhonov_patch", "tikhonov_kl", "bumps_above_knots", "amplitude_decreasing",
        "lambda_inf", "eps_stop_inf", "beta_nan", "beta_neg_inf", "rho_rel_inf",
        "mu_inf", "rho_rel_exact", "rho_rel_l1", "rho_rel_kl", "rho_rel_ls", "mu_pds",
        "mu_apgd", "psnr_db_nan", "psnr_db_inf", "matern_beta_not_half_integer",
        "sobolev_beta_not_admissible", "fwhm_deg_not_reached"])
def test_bad_run_config_fails_before_any_work(tmp_path, key, patch):
    cfg = _scatter_selftest_config(tmp_path / "run", max_iter=50)
    patch(cfg)
    with pytest.raises(ValueError, match=re.escape(key)):
        run_reconstruction(cfg)
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------ full runs


def _scatter_selftest_config(outdir, **overrides):
    cfg = {
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
                   "convention": "eq60"},
        "knots": {"fibonacci": 80},
        "sampling": {"synthetic": {"kind": "scatter", "bumps": 5,
                                   "amplitude": [0.5, 2.0], "samples": 240}},
        "cost": {"kind": "exact"},
        "lambda": 1e-4,
        "solver": {"kind": "pds"},
        "eps_stop": 1e-9,
        "max_iter": 120000,
        "seed": 7,
        "outputs": {"directory": str(outdir)},
    }
    cfg.update(overrides)
    return cfg


def _gram_for(cfg_dict):
    cfg = RunConfig(cfg_dict)
    kernel = build_kernel(cfg["kernel"])
    knots = fibonacci_lattice(cfg["knots"]["fibonacci"])
    functionals, y, _ = synthetic_measurements(cfg["sampling"]["synthetic"], kernel, knots)
    return assemble_gram(kernel, functionals, knots), y, cfg


def test_noiseless_interpolation_selftest(tmp_path):
    # planted lattice spline sampled at 3x knot count: the exact-match run
    # must reproduce the data to 1e-6 relative
    cfg = _scatter_selftest_config(tmp_path / "run")
    manifest = run_reconstruction(cfg)
    assert manifest["converged"]
    G, y, _ = _gram_for(cfg)
    _, coeffs = load_coefficients_csv(manifest["outputs"]["coefficients"])
    resid = np.linalg.norm(G.matvec(coeffs) - y)
    assert resid <= 1e-6 * np.linalg.norm(y)


def test_manifest_objective_matches_recomputation(tmp_path):
    cfg = _scatter_selftest_config(
        tmp_path / "run", **{"cost": {"kind": "l2ball", "rho_rel": 0.01},
                             "lambda": 0.001, "eps_stop": 1e-6,
                             "max_iter": 20000}
    )
    manifest = run_reconstruction(cfg)
    G, y, parsed = _gram_for(cfg)
    _, coeffs = load_coefficients_csv(manifest["outputs"]["coefficients"])
    model = L2Ball(y, parsed["cost"]["rho_rel"] * np.linalg.norm(y))
    obj = parsed["lambda"] * np.abs(coeffs).sum() + model.finite_value(G.matvec(coeffs))
    assert abs(obj - manifest["final_objective"]) <= 1e-9 * max(abs(obj), 1e-300)


def test_manifest_fields_populated(tmp_path):
    cfg = _scatter_selftest_config(tmp_path / "run", max_iter=200, eps_stop=1e-4)
    manifest = run_reconstruction(cfg)
    data = json.loads(open(manifest["outputs"]["manifest"]).read())
    for key in ("config", "iterations", "converged", "final_objective", "gram",
                "residual_norms", "sparsity_count", "wall_time_s",
                "library_version", "rng_seed", "timestamp", "outputs"):
        assert key in data
    assert data["rng_seed"] == 7
    assert data["library_version"].count(".") == 2
    # ISO-8601 with timezone
    assert "T" in data["timestamp"] and data["timestamp"].endswith("+00:00")
    assert data["config"]["lambda"] == cfg["lambda"]

    # the gram block describes the system matrix the solve ran on, and the
    # balanced PDS steps 1/||G|| it took
    G, _, _ = _gram_for(cfg)
    norm = spectral_norm(G)
    gram = {"shape": [240, 80], "nnz": G.nnz, "density": G.nnz / (240 * 80),
            "spectral_norm": norm, "tau": 1.0 / norm, "sigma": 1.0 / norm}
    assert data["gram"] == gram
    assert data["kernel_table"] is None  # a closed-form Matern field kernel
    # every point of an APGD sweep shares one matrix, so one block; its one
    # step is 1/(2 ||G||^2), and it takes no dual step
    sweep = _scatter_selftest_config(tmp_path / "sweep", cost={"kind": "ls"},
                                     solver={"kind": "apgd"}, max_iter=20)
    gram.update(tau=1.0 / (2.0 * norm * norm), sigma=None)
    for point in pipeline.run_lambda_sweep(sweep, [1e-4, 1e-2]):
        assert json.load(open(point["outputs"]["manifest"]))["gram"] == gram
    # no raster, no raster record; a sweep's raster keeps the dense Matern
    # blocks of its 6 x 12 cells against the 80 knots
    assert data["raster"] is None
    sweep["outputs"]["raster"] = {"n_lat": 6, "n_lon": 12, "path": "r.csv"}
    for point in pipeline.run_lambda_sweep(sweep, [1e-4, 1e-2]):
        record = json.load(open(point["outputs"]["manifest"]))["raster"]
        assert record == {"stored": True, "entries": 6 * 12 * 80}
    # a tikhonov solve has no G
    tik = _scatter_selftest_config(tmp_path / "tik", cost={"kind": "ls"},
                                   solver={"kind": "tikhonov", "mu": 1e-3})
    tik["sampling"]["synthetic"].update(samples=60, psnr_db=25.0)
    manifest = run_reconstruction(tik)
    data = json.load(open(manifest["outputs"]["manifest"]))
    assert data["gram"] is None
    # its self-convolved field kernel reads a certified table
    table = tabulate(self_convolve(build_kernel(RunConfig(tik)["kernel"]).series()))
    assert data["kernel_table"] == {"nodes": 8192, "error_bound": table.error_bound}


SETUP_STAGES = {"build_kernel", "load_csv", "series", "assemble", "knot_gram",
                "spectral_norm"}


def _stages_of(manifest):
    """The manifest's stage block, checked: seconds >= 0 whose sum is within
    the run's wall time, beside a positive peak RSS."""
    data = json.load(open(manifest["outputs"]["manifest"]))
    stages = data["stages"]
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert sum(stages.values()) <= data["wall_time_s"]
    assert data["peak_rss_mb"] > 0.0
    return stages


def test_runs_with_dense_norms_leave_scipy_linalg_and_arpack_unloaded(tmp_path):
    # the direct solves are numpy's and a norm of G with at most
    # DENSE_NORM_MAX rows or columns is a dense eigenvalue, so neither
    # module loads: not with the CLI's import, a tikhonov run, an RKHS
    # projection, or a pds or apgd run of 1 or 30 samples
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = ("import sys\n"
            "import sphsplines.cli\n"
            "from sphsplines import fibonacci_lattice, matern_zonal, rkhs_project\n"
            "from sphsplines.pipeline import run_reconstruction\n"
            "def loaded():\n"
            "    return [m in sys.modules for m in ('scipy.linalg', 'scipy.sparse.linalg')]\n"
            "seen = loaded()\n"
            "def run(samples, solver):\n"
            "    run_reconstruction({'kernel': {'family': 'matern', 'beta': 2.5,\n"
            "        'epsilon': 0.35}, 'knots': {'fibonacci': 20},\n"
            "        'sampling': {'synthetic': {'kind': 'scatter', 'samples': samples}},\n"
            "        'cost': {'kind': 'ls'}, 'solver': solver, 'max_iter': 20,\n"
            "        'seed': 1, 'outputs': {'directory': sys.argv[1]}})\n"
            "run(30, {'kind': 'tikhonov', 'mu': 1e-3})\n"
            "seen += loaded()\n"
            "rkhs_project(matern_zonal(2.5, 0.35), fibonacci_lattice(20), [1.0] * 20)\n"
            "seen += loaded()\n"
            "for kind in ('pds', 'apgd'):\n"
            "    for samples in (1, 30):\n"
            "        run(samples, {'kind': kind})\n"
            "        seen += loaded()\n"
            "print(*seen)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # both modules, after the import and after each of the six computations
    assert proc.stdout.split() == ["False"] * 14


def test_runs_load_scipy_sparse_only_for_sparse_work(tmp_path):
    # a dense G (point samples under a global kernel) and the direct solves
    # are numpy's, so the CLI's import, a tikhonov run, an RKHS projection
    # and Matern pds and apgd runs load no scipy module; a compact kernel's
    # G and a patch run's W are sparse, and load scipy.sparse alone
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = ("import sys\n"
            "import sphsplines.cli\n"
            "from sphsplines import fibonacci_lattice, matern_zonal, rkhs_project\n"
            "from sphsplines.pipeline import run_reconstruction\n"
            "def loaded():\n"
            "    names = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "    print(bool(names), *(m in names for m in\n"
            "          ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg')))\n"
            "loaded()\n"
            "def run(kernel, sampling, solver, cost='ls'):\n"
            "    run_reconstruction({'kernel': kernel, 'knots': {'fibonacci': 20},\n"
            "        'sampling': {'synthetic': sampling}, 'cost': {'kind': cost},\n"
            "        'solver': solver, 'max_iter': 20, 'seed': 1,\n"
            "        'outputs': {'directory': sys.argv[1]}})\n"
            "    loaded()\n"
            "matern = {'family': 'matern', 'beta': 2.5, 'epsilon': 0.35}\n"
            "scatter = {'kind': 'scatter', 'samples': 30}\n"
            "run(matern, scatter, {'kind': 'tikhonov', 'mu': 1e-3})\n"
            "rkhs_project(matern_zonal(2.5, 0.35), fibonacci_lattice(20), [1.0] * 20)\n"
            "loaded()\n"
            "run(matern, scatter, {'kind': 'pds'})\n"
            "run(matern, scatter, {'kind': 'apgd'})\n"
            "run({'family': 'wendland', 'k': 1, 'epsilon': 0.5}, scatter, {'kind': 'pds'})\n"
            "run(matern, {'kind': 'counts', 'grid': [4, 8]}, {'kind': 'pds'}, 'kl')\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # any scipy module, scipy.sparse, scipy.linalg, scipy.sparse.linalg:
    # none after the import and each dense computation; after the Wendland
    # run and the patch run, scipy.sparse alone of the three
    assert [line.split() for line in proc.stdout.splitlines()] == (
        [["False"] * 4] * 5 + [["True", "True", "False", "False"]] * 2)


def test_manifest_peak_rss_is_the_runs_own(tmp_path):
    # Linux carries ru_maxrss across exec, so a run launched by a process
    # holding 256 MB read that process's peak; VmHWM is the run's own
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    run = ("import json, sys\n"
           "from sphsplines.pipeline import run_reconstruction\n"
           "manifest = run_reconstruction({'kernel': {'family': 'matern', 'beta': 2.5,\n"
           "    'epsilon': 0.35}, 'knots': {'fibonacci': 20},\n"
           "    'sampling': {'synthetic': {'kind': 'scatter', 'samples': 30}},\n"
           "    'cost': {'kind': 'ls'}, 'solver': {'kind': 'pds'}, 'max_iter': 20,\n"
           "    'seed': 1, 'outputs': {'directory': sys.argv[1]}})\n"
           "print(json.load(open(manifest['outputs']['manifest']))['peak_rss_mb'])\n")
    launcher = ("import resource, subprocess, sys\n"
                "held = bytearray(256 << 20)\n"
                "held[::4096] = b'x' * len(held[::4096])\n"
                "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(peak / (1 << 20 if sys.platform == 'darwin' else 1 << 10))\n"
                "sys.stdout.flush()\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1], sys.argv[2]], check=True)\n")
    proc = subprocess.run([sys.executable, "-c", launcher, run, str(tmp_path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    launcher_peak, run_peak = map(float, proc.stdout.split()[-2:])
    assert launcher_peak > 256.0
    assert 0.0 < run_peak < 0.6 * launcher_peak


def test_manifest_records_the_stages_the_run_executes(tmp_path):
    raster = {"n_lat": 4, "n_lon": 8, "path": "r.csv"}
    cfg = _scatter_selftest_config(tmp_path / "pds", max_iter=50, eps_stop=1e-4)
    cfg["outputs"]["raster"] = raster
    assert set(_stages_of(run_reconstruction(cfg))) == {
        "build_kernel", "assemble", "spectral_norm", "solve",
        "save_coefficients", "export_raster"}
    # a scatter file is loaded; no raster is written
    samples = tmp_path / "samples.csv"
    save_scatter_csv(samples, [0.0, 90.0, -45.0], [0.0, 30.0, -60.0], [1.0, 2.0, 3.0])
    cfg = _scatter_selftest_config(tmp_path / "csv", max_iter=50,
                                   sampling={"scatter_csv": str(samples)})
    assert set(_stages_of(run_reconstruction(cfg))) == {
        "build_kernel", "load_csv", "assemble", "spectral_norm", "solve",
        "save_coefficients"}
    # synthetic counts are drawn through the assembled G
    cfg = _scatter_selftest_config(tmp_path / "kl", cost={"kind": "kl"}, max_iter=50,
                                   sampling={"synthetic": {"kind": "counts",
                                                           "grid": [4, 8]}})
    assert set(_stages_of(run_reconstruction(cfg))) == {
        "build_kernel", "assemble", "spectral_norm", "solve", "save_coefficients"}
    # tikhonov: the series, the self-convolved kernel on the samples, one solve
    tik = _scatter_selftest_config(tmp_path / "tik", cost={"kind": "ls"},
                                   solver={"kind": "tikhonov", "mu": 1e-3})
    tik["sampling"]["synthetic"].update(samples=60, psnr_db=25.0)
    assert set(_stages_of(run_reconstruction(tik))) == {
        "build_kernel", "series", "knot_gram", "solve", "save_coefficients"}
    # every point of a sweep repeats the setup stages it shares
    sweep = _scatter_selftest_config(tmp_path / "sweep", cost={"kind": "ls"},
                                     solver={"kind": "apgd"}, max_iter=20)
    points = [_stages_of(m) for m in pipeline.run_lambda_sweep(sweep, [1e-4, 1e-2])]
    setup = [{k: v for k, v in p.items() if k in SETUP_STAGES} for p in points]
    assert set(setup[0]) == {"build_kernel", "assemble", "spectral_norm"}
    assert setup[0] == setup[1]
    assert all("solve" in p for p in points)


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = _scatter_selftest_config(tmp_path / "a", max_iter=500, eps_stop=1e-4)
    cfg_b = _scatter_selftest_config(tmp_path / "b", max_iter=500, eps_stop=1e-4)
    ma = run_reconstruction(cfg_a)
    mb = run_reconstruction(cfg_b)
    bytes_a = open(ma["outputs"]["coefficients"], "rb").read()
    bytes_b = open(mb["outputs"]["coefficients"], "rb").read()
    assert bytes_a == bytes_b
    trace_a = open(ma["outputs"]["trace"], "rb").read()
    trace_b = open(mb["outputs"]["trace"], "rb").read()
    assert trace_a == trace_b


def test_kl_counts_run(tmp_path):
    cfg = {
        "kernel": {"family": "matern", "beta": 1.5, "epsilon": 0.4},
        "knots": {"fibonacci": 60},
        "sampling": {"synthetic": {"kind": "counts", "bumps": 4,
                                   "amplitude": [0.5, 2.0], "grid": [8, 16],
                                   "rate_scale": 40.0}},
        "cost": {"kind": "kl"},
        "lambda": 0.05,
        "solver": {"kind": "pds"},
        "eps_stop": 1e-7,
        "max_iter": 40000,
        "seed": 3,
        "outputs": {"directory": str(tmp_path / "kl")},
    }
    manifest = run_reconstruction(cfg)
    assert np.isfinite(manifest["final_objective"])
    G, y, _ = _gram_for(cfg)
    _, coeffs = load_coefficients_csv(manifest["outputs"]["coefficients"])
    rates = G.matvec(coeffs)
    # fitted rates nonnegative up to boundary roundoff
    assert rates.min() >= -1e-6 * (1.0 + y.max())


def test_quadratic_baseline_is_dense_gtv_is_sparse(tmp_path):
    scatter = {"synthetic": {"kind": "scatter", "bumps": 5,
                             "amplitude": [0.5, 2.0], "samples": 90,
                             "psnr_db": 25.0}}
    common = {
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
                   "convention": "eq60"},
        "knots": {"fibonacci": 80},
        "sampling": scatter,
        "seed": 11,
    }
    tik = run_reconstruction({
        **common,
        "cost": {"kind": "ls"},
        "solver": {"kind": "tikhonov", "mu": 1e-3},
        "outputs": {"directory": str(tmp_path / "tik")},
    })
    gtv = run_reconstruction({
        **common,
        "cost": {"kind": "l2ball", "rho_rel": 0.05},
        "lambda": 0.01,
        "solver": {"kind": "pds"},
        "eps_stop": 1e-6,
        "max_iter": 40000,
        "outputs": {"directory": str(tmp_path / "gtv")},
    })
    n_samples = 90
    assert tik["sparsity_count"] > 0.9 * n_samples
    assert gtv["sparsity_count"] <= n_samples
    assert gtv["sparsity_count"] < tik["sparsity_count"]


def test_tikhonov_manifest_reports_one_direct_solve(tmp_path):
    manifest = run_reconstruction({
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
                   "convention": "eq60"},
        "knots": {"fibonacci": 40},
        "sampling": {"synthetic": {"kind": "scatter", "samples": 60,
                                   "psnr_db": 25.0}},
        "cost": {"kind": "ls"},
        "solver": {"kind": "tikhonov", "mu": 1e-3},
        "seed": 3,
        "outputs": {"directory": str(tmp_path)},
    })
    assert manifest["iterations"] == 1 and manifest["converged"]
    assert manifest["residual_norms"]["system_relative"] <= 1e-12


def test_tikhonov_requires_point_samples(tmp_path):
    cfg = {
        "kernel": {"family": "matern", "beta": 1.5, "epsilon": 0.4},
        "knots": {"fibonacci": 30},
        "sampling": {"synthetic": {"kind": "counts", "grid": [4, 8],
                                   "rate_scale": 30.0}},
        "cost": {"kind": "ls"},
        "solver": {"kind": "tikhonov", "mu": 1e-2},
        "seed": 0,
        "outputs": {"directory": str(tmp_path)},
    }
    with pytest.raises(ValueError, match="point samples"):
        run_reconstruction(cfg)


def _count_assembly(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_gram(*args, **kwargs)

    monkeypatch.setattr(pipeline, "assemble_gram", counted)
    return calls


def test_synthetic_counts_run_assembles_gram_once(tmp_path, monkeypatch):
    calls = _count_assembly(monkeypatch)
    run_reconstruction({
        "kernel": {"family": "wendland", "k": 1, "epsilon": 0.4},
        "knots": {"fibonacci": 40},
        "sampling": {"synthetic": {"kind": "counts", "grid": [4, 8],
                                   "rate_scale": 30.0}},
        "cost": {"kind": "kl"},
        "lambda": 0.01,
        "solver": {"kind": "pds"},
        "max_iter": 200,
        "seed": 1,
        "outputs": {"directory": str(tmp_path)},
    })
    assert len(calls) == 1


def test_lambda_sweep_shares_one_setup(tmp_path, monkeypatch):
    calls = _count_assembly(monkeypatch)
    cfg = _scatter_selftest_config(tmp_path, cost={"kind": "ls"},
                                   solver={"kind": "apgd"}, max_iter=200)
    lams = [1e-4, 1e-3, 1e-2]
    manifests = list(pipeline.run_lambda_sweep(cfg, lams))
    assert len(calls) == 1
    assert [m["config"]["lambda"] for m in manifests] == lams
    for i, m in enumerate(manifests):
        run_dir = os.path.join(str(tmp_path), "lambda_%02d" % i)
        assert m["config"]["outputs"]["directory"] == run_dir
        assert os.path.isfile(os.path.join(run_dir, "coefficients.csv"))


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan], ids=["negative", "inf", "nan"])
def test_lambda_sweep_checks_every_weight_before_any_work(tmp_path, monkeypatch, bad):
    calls = _count_assembly(monkeypatch)
    cfg = _scatter_selftest_config(tmp_path / "sweep", max_iter=200)
    with pytest.raises(ValueError, match=r"^lambda\[1\] must be a number >= 0$"):
        list(pipeline.run_lambda_sweep(cfg, [1.0, bad]))
    assert calls == []
    assert not (tmp_path / "sweep").exists()


def test_tikhonov_run_builds_one_knot_set_on_the_samples(tmp_path, monkeypatch):
    # one KnotSet for the Fibonacci knots and one for the sample directions,
    # which the knot Gram and the solved field share
    lon, lat = lonlat_from_direction(fibonacci_lattice(60).points)
    save_scatter_csv(tmp_path / "s.csv", lon, lat, np.cos(np.radians(lat)))
    built = []
    init = KnotSet.__init__

    def counted(self, points):
        built.append(len(points))
        init(self, points)

    monkeypatch.setattr(KnotSet, "__init__", counted)
    manifest = run_reconstruction({
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
                   "convention": "eq60"},
        "knots": {"fibonacci": 40},
        "sampling": {"scatter_csv": str(tmp_path / "s.csv")},
        "cost": {"kind": "ls"},
        "solver": {"kind": "tikhonov", "mu": 1e-3},
        "outputs": {"directory": str(tmp_path / "out")},
    })
    assert manifest["iterations"] == 1
    assert built == [40, 60]


def test_run_writes_optional_raster(tmp_path):
    cfg = _scatter_selftest_config(
        tmp_path / "run", max_iter=300, eps_stop=1e-4,
    )
    cfg["outputs"]["raster"] = {"n_lat": 6, "n_lon": 12, "path": "r.csv"}
    manifest = run_reconstruction(cfg)
    lines = open(manifest["outputs"]["raster"]).read().splitlines()
    assert lines[0] == "lon_deg,lat_deg,value"
    assert len(lines) == 1 + 6 * 12


# ---------------------------------------------------------------- rasters


def test_raster_zero_field(tmp_path):
    kernel = wendland_zonal(3, 1, 0.3)
    field = SplineField(kernel, fibonacci_lattice(20), np.zeros(20))
    path = tmp_path / "z.csv"
    export_raster(field, 4, 8, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (32, 3)
    assert np.all(rows[:, 2] == 0)
    # south-to-north rows, west-to-east columns, cell centres
    assert rows[0, 0] == -180 + 360 / 8 / 2 and rows[0, 1] == -90 + 180 / 4 / 2
    assert rows[-1, 0] == 180 - 360 / 8 / 2 and rows[-1, 1] == 90 - 180 / 4 / 2


def test_raster_peak_near_single_knot(tmp_path):
    kernel = wendland_zonal(3, 1, 0.5)
    knots = fibonacci_lattice(50)
    coeffs = np.zeros(50)
    coeffs[17] = 2.0
    field = SplineField(kernel, knots, coeffs)
    path = tmp_path / "p.csv"
    export_raster(field, 90, 180, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    peak = rows[np.argmax(rows[:, 2])]
    lon_k, lat_k = lonlat_from_direction(knots.points[17])
    assert abs(peak[0] - lon_k) <= 2.0 + 1e-9 and abs(peak[1] - lat_k) <= 2.0 + 1e-9
    assert peak[2] <= 2.0 + 1e-12


def test_raster_rejects_degenerate_grid(tmp_path):
    kernel = wendland_zonal(3, 1, 0.3)
    field = SplineField(kernel, fibonacci_lattice(5), np.ones(5))
    with pytest.raises(ValueError, match="n_lat"):
        export_raster(field, 1, 10, tmp_path / "x.csv")



@pytest.mark.parametrize("kernel", [wendland_zonal(3, 1, 0.4), matern_zonal(2.5, 0.3)],
                         ids=["wendland", "matern"])
def test_raster_has_the_bytes_of_the_evaluated_scatter_table(kernel, tmp_path, monkeypatch):
    # a raster writes each row and column centre's text once per write and
    # takes its values from the grid's kernel blocks: the bytes of its cells
    # and of `evaluate` saved as a scatter table
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", 4000)  # several blocks
    knots = fibonacci_lattice(200)
    field = SplineField(kernel, knots, np.random.default_rng(3).standard_normal(200))
    export_raster(field, 30, 60, tmp_path / "raster.csv")
    lat = -90.0 + (np.arange(30) + 0.5) * 6.0
    lon, lat = np.meshgrid(-180.0 + (np.arange(60) + 0.5) * 6.0, lat)
    lon, lat = lon.ravel(), lat.ravel()
    save_scatter_csv(tmp_path / "evaluate.csv", lon, lat,
                     evaluate(field, direction_from_lonlat(lon, lat)))
    assert (tmp_path / "raster.csv").read_bytes() == (tmp_path / "evaluate.csv").read_bytes()
