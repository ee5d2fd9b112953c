"""Command-line interface tests (in-process, via main(argv))."""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sphsplines
from sphsplines.cli import main
from sphsplines.gram import kernel_blocks
from sphsplines.kernels import wendland_zonal
from sphsplines.pipeline import load_patch_counts_csv, load_scatter_csv
from sphsplines.sphere import direction_from_lonlat, fibonacci_lattice


def _write_config(path, outdir, **overrides):
    cfg = {
        "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
                   "convention": "eq60"},
        "knots": {"fibonacci": 60},
        "sampling": {"synthetic": {"kind": "scatter", "bumps": 4,
                                   "amplitude": [0.5, 2.0], "samples": 150}},
        "cost": {"kind": "exact"},
        "lambda": 1e-3,
        "solver": {"kind": "pds"},
        "eps_stop": 1e-5,
        "max_iter": 3000,
        "seed": 5,
        "outputs": {"directory": str(outdir)},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


# the synthetic configs of the synth tests: a noisy Matern scatter and
# Wendland patch counts
SYNTH_SCATTER = dict(
    kernel={"family": "matern", "beta": 2.5, "epsilon": 0.3},
    knots={"fibonacci": 50},
    sampling={"synthetic": {"kind": "scatter", "bumps": 4, "samples": 120,
                            "psnr_db": 15, "seed": 3}},
)
SYNTH_COUNTS = dict(
    kernel={"family": "wendland", "k": 1, "epsilon": 0.4},
    knots={"fibonacci": 60},
    sampling={"synthetic": {"kind": "counts", "grid": [6, 12],
                            "rate_scale": 30, "seed": 2}},
)


def _synth(tmp_path, out, **overrides):
    """Exit code of ``synth`` on a config with ``overrides``, writing ``out``."""
    cfg_path = tmp_path / "synth.json"
    _write_config(cfg_path, tmp_path / "out", **overrides)
    return main(["synth", "--config", str(cfg_path), "--output", str(out)])


def test_lattice_dump(tmp_path, capsys):
    out = tmp_path / "lattice.csv"
    assert main(["lattice", "--n", "25", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lon_deg,lat_deg"
    assert len(lines) == 26


def test_synth_scatter_writes_loadable_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert _synth(tmp_path, out, **SYNTH_SCATTER) == 0
    dirs, values = load_scatter_csv(out)
    assert dirs.shape == (120, 3) and values.shape == (120,)


# sha256 of the files these synthetic configs write, recorded before the
# subcommands shared the pipeline's synthetic-data generator; a change means
# the data changed
SYNTH_SCATTER_SHA256 = "f1cbfd20c83714b1b920fdd9e754601eeae15c2bfede4f89c952005c68d31952"
SYNTH_COUNTS_SHA256 = "d4677f43b2a966b979cef69d5f2c00a55f106d45d695150148c608c5335430e0"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_scatter_bytes_are_pinned(tmp_path):
    out = tmp_path / "s.csv"
    assert _synth(tmp_path, out, **SYNTH_SCATTER) == 0
    assert _sha256(out) == SYNTH_SCATTER_SHA256


def test_synth_counts_bytes_are_pinned(tmp_path):
    out = tmp_path / "c.csv"
    assert _synth(tmp_path, out, **SYNTH_COUNTS) == 0
    assert _sha256(out) == SYNTH_COUNTS_SHA256


# sha256 of the tables these commands wrote before every table shared one
# writer; a change means the written bytes changed
LATTICE_50_SHA256 = "baf562cbca82a134939b19aec23cf780e12f0db4151e0ce00f7e032f6fd8ed91"
# the run's steps come from the dense eigenvalue norm of a BLAS Gram,
# rounded up to a coupling float, and its products from the Matern G's
# dense copy; recorded at one BLAS thread
RUN_TABLES_SHA256 = {
    "coefficients.csv": "18447fdf08a09f2f3186bc5b103b6040ceadaaa31027b437ebfabe1df5c4cacf",
    "trace.csv": "1f838f05a49499c5a64ef0d1c98b96dba8c28e4c6fc74ae6f8a2dd7ca251ad98",
    "r.csv": "98d488ca6c24668a1b619009aa5589c80c56de2b5920c12304f1bf57bbc11bbe",
}


def test_lattice_bytes_are_pinned(tmp_path, capsys):
    assert main(["lattice", "--n", "50"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == LATTICE_50_SHA256
    out = tmp_path / "l.csv"
    assert main(["lattice", "--n", "50", "--output", str(out)]) == 0
    assert _sha256(out) == LATTICE_50_SHA256


def test_run_table_bytes_are_pinned(tmp_path):
    # one small seeded run: its coefficient, trace and 4x8 raster tables.
    # The norm is LAPACK's dense eigenvalue, which can change its bits with
    # the thread count, so the run goes in a process held at one thread.
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", max_iter=400,
                  outputs={"directory": str(tmp_path / "out"),
                           "raster": {"n_lat": 4, "n_lon": 8, "path": "r.csv"}})
    _cli_at_one_thread("reconstruct", "--config", cfg_path)
    written = {name: _sha256(tmp_path / "out" / name) for name in RUN_TABLES_SHA256}
    assert written == RUN_TABLES_SHA256


# sha256 of the tables a tikhonov run writes at one BLAS thread, recorded
# after its solve moved from scipy's Cholesky to numpy's (coefficients moved
# by 1.9e-12, trace by 7.9e-14, raster by 1.1e-13 of their largest values);
# a change means the bytes changed
TIKHONOV_TABLES_SHA256 = {
    "coefficients.csv": "37ebae65c3ca1668f6eea1c03e9050a61b4fe39db0d5d1f51586b037bcf996c6",
    "trace.csv": "4e6eeaad46602255ce1da2cb41f8a5a0f8fbeae4f1c93f3c39dbc143f96c3022",
    "r.csv": "c39f3c9a53301874caa91fa7ea6b47a90da0f04bc8fa14ae53b82c1e3b1f633b",
}


def test_tikhonov_run_table_bytes_are_pinned(tmp_path):
    # 200 samples: the knot Gram's 19,900 off-diagonal values and the 4x8
    # raster's 6,400 go through the self-convolved kernel's certified table.
    # numpy's Cholesky factor of a 200 x 200 matrix changes its bits with
    # the thread count, so the run goes in a process held at one thread.
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out",
                  sampling={"synthetic": {"kind": "scatter", "bumps": 4,
                                          "samples": 200, "psnr_db": 30}},
                  cost={"kind": "ls"}, solver={"kind": "tikhonov", "mu": 1e-3},
                  outputs={"directory": str(tmp_path / "out"),
                           "raster": {"n_lat": 4, "n_lon": 8, "path": "r.csv"}})
    _cli_at_one_thread("reconstruct", "--config", cfg_path)
    written = {name: _sha256(tmp_path / "out" / name) for name in TIKHONOV_TABLES_SHA256}
    assert written == TIKHONOV_TABLES_SHA256


def _cli_at_one_thread(*argv):
    """Run the CLI with ``argv`` in a child process held at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sphsplines.__file__)))
    proc = subprocess.run([sys.executable, "-m", "sphsplines.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# sha256 of the tables a KL/PDS run on synthetic Wendland patch counts
# writes at one BLAS thread; a change means the bytes changed
PATCH_RUN_SHA256 = {
    "coefficients.csv": "f4ba8325f5079f17e79d95fdfab672ab52a277c932e3db6814cf80af087959ae",
    "trace.csv": "c8a7859e120688099c331d9d5508bd40d89dd8384e1340e574e0f69149eed2e1",
}


def test_patch_csv_run_matches_the_synthetic_run_it_was_drawn_from(tmp_path):
    # synth writes the counts a synthetic run draws; a reconstruct from that
    # patch_csv, at the same quadrature order, solves the same problem
    counts = tmp_path / "counts.csv"
    run = dict(SYNTH_COUNTS, cost={"kind": "kl"}, max_iter=400)
    run["sampling"] = {"synthetic": dict(run["sampling"]["synthetic"], quadrature_order=4)}
    _write_config(tmp_path / "synthetic.json", tmp_path / "synthetic", **run)
    _write_config(tmp_path / "patch.json", tmp_path / "patch", **dict(
        run, sampling={"patch_csv": str(counts), "quadrature_order": 4}))
    _cli_at_one_thread("synth", "--config", tmp_path / "synthetic.json", "--output", counts)
    for name in ("synthetic", "patch"):
        _cli_at_one_thread("reconstruct", "--config", tmp_path / (name + ".json"))
    written = [{table: _sha256(tmp_path / name / table) for table in PATCH_RUN_SHA256}
               for name in ("synthetic", "patch")]
    assert written == [PATCH_RUN_SHA256] * 2


@pytest.mark.parametrize("source, header", [
    ("scatter_csv", "lon_deg,lat_deg,value"),
    ("patch_csv", "lon_min,lon_max,lat_min,lat_max,count"),
])
def test_a_header_only_measurement_file_fails_naming_it(tmp_path, capsys, source, header):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    _write_config(tmp_path / "run.json", tmp_path / "out", sampling={source: str(path)})
    assert main(["reconstruct", "--config", str(tmp_path / "run.json")]) == 1
    kind = source.partition("_")[0]
    assert capsys.readouterr().err == (
        "error [sphsplines.pipeline] ValueError: %s file %r has no rows\n" % (kind, str(path)))
    assert sorted(os.listdir(tmp_path)) == ["empty.csv", "run.json"]


# sha256 of the tables a Wendland lambda sweep writes at one BLAS thread;
# a change means the bytes changed
WENDLAND_SWEEP_SHA256 = {
    "lambda_00/coefficients.csv": "094534311623d2ce83fffd024d42bfb45197ea90c6dc614ee8112a14929a0bd1",
    "lambda_00/trace.csv": "e2204f630172d5b781560e3f64dfaf4c4cf5e0034bc3345980da80f68a1db069",
    "lambda_00/r.csv": "c38c913041586c7bc66a2a4d06cbe22ef17527381312e2c6d0aac42922715de4",
    "lambda_01/coefficients.csv": "a78309c04d674afe60dc8f746ddee73f4646c64272280bc3105343944e0c4768",
    "lambda_01/trace.csv": "1cd901a1dc9638dc63f57d717ab2e2cb15f947ab4659a657c760573aa3a03bae",
    "lambda_01/r.csv": "0a3839230c0821a4900cd871606afe078b8d630bd225aa07eca8c646e93b01a6",
    "lambda_02/coefficients.csv": "ea4cd3243f61e5317105c1becf51da7176267b2a41cf979b1c559bb85fea1985",
    "lambda_02/trace.csv": "2925257badc1129e034591a0b3b9ba93fd7ff26859a1dc0ad69dca514701058e",
    "lambda_02/r.csv": "439505c83eee054784ebcd4c5d073bc65ffe69f1c1d582f38a72172d90f91320",
}


def test_wendland_sweep_table_bytes_are_pinned(tmp_path):
    # three APGD points share one setup; the 64 x 144 raster's 9,216 cells
    # span five CSR blocks of 2,184 rows of the Wendland kernel against the
    # 120 knots, which the sweep builds once and every point multiplies into
    # its coefficients.  The run goes in a process held at one BLAS thread.
    kernel = {"family": "wendland", "k": 1, "epsilon": 1.0}
    raster = {"n_lat": 64, "n_lon": 144, "path": "r.csv"}
    lon, lat = np.meshgrid(-180.0 + (np.arange(144) + 0.5) * 2.5,
                           -90.0 + (np.arange(64) + 0.5) * (180.0 / 64))
    cells = direction_from_lonlat(lon.ravel(), lat.ravel())
    blocks = kernel_blocks(wendland_zonal(3, 1, 1.0), cells, fibonacci_lattice(120).points)
    assert len(list(blocks)) == 5
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", kernel=kernel, knots={"fibonacci": 120},
                  sampling={"synthetic": {"kind": "scatter", "bumps": 4,
                                          "amplitude": [0.5, 2.0], "samples": 360,
                                          "psnr_db": 30}},
                  cost={"kind": "ls"}, solver={"kind": "apgd"}, max_iter=300,
                  outputs={"directory": str(tmp_path / "out"), "raster": raster})
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sphsplines.__file__)))
    argv = [sys.executable, "-m", "sphsplines.cli", "reconstruct", "--config",
            str(cfg_path), "--lambda-sweep", "1e-3", "1e-1", "3"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    written = {name: _sha256(tmp_path / "out" / name) for name in WENDLAND_SWEEP_SHA256}
    assert written == WENDLAND_SWEEP_SHA256
    for i in range(3):
        manifest = json.loads((tmp_path / "out" / ("lambda_%02d" % i)
                               / "manifest.json").read_text())
        assert manifest["raster"] == {"stored": True, "entries": 276437}


def test_synth_counts_writes_loadable_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert _synth(tmp_path, out, **SYNTH_COUNTS) == 0
    bounds, counts = load_patch_counts_csv(out)
    assert len(bounds) == 72
    assert counts.min() >= 0
    assert counts.sum() > 0


def test_reconstruct_with_overrides(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "ignored")
    outdir = tmp_path / "actual"
    code = main([
        "reconstruct", "--config", str(cfg_path),
        "--lambda", "0.01", "--seed", "9", "--output-dir", str(outdir),
    ])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["lambda"] == 0.01
    assert manifest["rng_seed"] == 9
    assert (outdir / "coefficients.csv").exists()
    assert (outdir / "trace.csv").exists()


def test_reconstruct_solver_override_validated(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out")  # exact cost
    code = main(["reconstruct", "--config", str(cfg_path), "--solver", "apgd"])
    assert code == 1
    err = capsys.readouterr().err
    assert "apgd" in err and "sphsplines" in err


def test_reconstruct_missing_config_fails(tmp_path, capsys):
    code = main(["reconstruct", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_reconstruct_propagates_csv_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("lon_deg,lat_deg,value\n0,0,1\nx,0,1\n")
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out",
                  sampling={"scatter_csv": str(bad)})
    code = main(["reconstruct", "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "sphsplines.pipeline" in err


def test_repeated_samples_fail_a_tikhonov_run_naming_sampling(tmp_path, capsys):
    # a tikhonov field centres one kernel on each sample direction, so a
    # repeated sample is an error of the sampling block; pds fits it as data
    samples = tmp_path / "samples.csv"
    samples.write_text("lon_deg,lat_deg,value\n0,0,1\n90,30,2\n0,0,1.5\n-45,-60,3\n")
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", sampling={"scatter_csv": str(samples)},
                  cost={"kind": "ls"}, solver={"kind": "tikhonov", "mu": 1e-3})
    assert main(["reconstruct", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error [sphsplines.pipeline] ValueError: sampling: sample directions repeat "
        "(solver.kind tikhonov centres a kernel on each): duplicate knots "
        "(pairwise chord <= 1e-10)\n")
    assert sorted(os.listdir(tmp_path)) == ["run.json", "samples.csv"]
    _write_config(cfg_path, tmp_path / "out", sampling={"scatter_csv": str(samples)},
                  cost={"kind": "ls"})
    assert main(["reconstruct", "--config", str(cfg_path)]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["coefficients.csv", "manifest.json",
                                                    "trace.csv"]


def test_lambda_sweep_writes_one_run_per_weight(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "sweep", max_iter=400)
    code = main([
        "reconstruct", "--config", str(cfg_path),
        "--lambda-sweep", "1e-4", "1e-2", "3",
    ])
    assert code == 0
    for i in range(3):
        sub = tmp_path / "sweep" / ("lambda_%02d" % i)
        assert (sub / "manifest.json").exists()
    lams = [json.loads((tmp_path / "sweep" / ("lambda_%02d" % i)
                        / "manifest.json").read_text())["config"]["lambda"]
            for i in range(3)]
    assert np.allclose(lams, np.geomspace(1e-4, 1e-2, 3))
    assert capsys.readouterr().out.count("lambda=") == 3


def test_lambda_sweep_matches_single_runs(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "sweep", max_iter=400,
                  outputs={"directory": str(tmp_path / "sweep"),
                           "raster": {"n_lat": 4, "n_lon": 8, "path": "r.csv"}})
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--lambda-sweep", "1e-4", "1e-2", "3"]) == 0
    for i, lam in enumerate(np.geomspace(1e-4, 1e-2, 3)):
        single = tmp_path / ("single_%d" % i)
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--lambda", repr(float(lam)), "--output-dir", str(single)]) == 0
        swept = tmp_path / "sweep" / ("lambda_%02d" % i)
        for name in ("coefficients.csv", "trace.csv", "r.csv"):
            assert (swept / name).read_bytes() == (single / name).read_bytes()


@pytest.mark.parametrize("sweep", [("1e-4", "1e-2", "2.5"), ("1e-4", "1e-2", "0"),
                                   ("1e-2", "1e-4", "3")],
                         ids=["count_float", "count_zero", "lo_above_hi"])
def test_lambda_sweep_validation(tmp_path, capsys, sweep):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "sweep")
    code = main(["reconstruct", "--config", str(cfg_path), "--lambda-sweep", *sweep])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and "COUNT" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("hi", ["inf", "nan"])
def test_lambda_sweep_rejects_a_non_finite_hi(tmp_path, capsys, hi):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "sweep")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning from the sweep grid
        code = main(["reconstruct", "--config", str(cfg_path),
                     "--lambda-sweep", "1", hi, "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error [sphsplines.cli]")
    assert "HI" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("key", ["coefficients", "trace", "manifest", "raster.path"])
def test_lambda_sweep_rejects_an_absolute_output_name(tmp_path, capsys, key):
    # every point would write the same file, and each manifest would point
    # at the last point's copy
    outputs = {"directory": str(tmp_path / "sweep"),
               "raster": {"n_lat": 4, "n_lon": 8, "path": "r.csv"}}
    target = str(tmp_path / "shared.csv")
    if key == "raster.path":
        outputs["raster"]["path"] = target
    else:
        outputs[key] = target
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "sweep", outputs=outputs)
    code = main(["reconstruct", "--config", str(cfg_path),
                 "--lambda-sweep", "1e-3", "1e-1", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error [sphsplines.pipeline]")
    assert "outputs.%s must be a relative path" % key in err
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_unknown_solver_flag_fails_like_the_config(tmp_path, capsys):
    # the config's solver.kind rule owns the list of solvers
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out")
    assert main(["reconstruct", "--config", str(cfg_path), "--solver", "bogus"]) == 1
    err = capsys.readouterr().err
    assert err == ("error [sphsplines.pipeline] ValueError: solver.kind must be "
                   "one of pds, apgd, tikhonov\n")
    assert not (tmp_path / "out").exists()


def test_reconstruct_rejects_float_seed(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", seed=2.9)
    assert main(["reconstruct", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and "seed must be an integer" in err
    assert not (tmp_path / "out").exists()


def test_raster_subcommand(tmp_path):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", max_iter=400)
    assert main(["reconstruct", "--config", str(cfg_path)]) == 0
    out = tmp_path / "r.csv"
    code = main([
        "raster", "--config", str(cfg_path),
        "--coefficients", str(tmp_path / "out" / "coefficients.csv"),
        "--output", str(out), "--n-lat", "5", "--n-lon", "10",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lon_deg,lat_deg,value"
    assert len(lines) == 51


def test_kernel_flag_validation(tmp_path, capsys):
    code = _synth(tmp_path, tmp_path / "x.csv",
                  kernel={"family": "wendland", "epsilon": 0.3})
    assert code == 1
    assert "smoothness index" in capsys.readouterr().err


@pytest.mark.parametrize("keys, message", [
    ({"epsilon": 0.3, "fwhm_deg": 20}, "exactly one of epsilon / fwhm_deg"),
    ({}, "exactly one of epsilon / fwhm_deg"),
    ({"epsilon": 0.3, "k": 1}, "unknown config key kernel.k"),
], ids=["both_scales", "no_scale", "order_with_matern"])
def test_kernel_flags_take_the_config_checks(tmp_path, capsys, keys, message):
    out = tmp_path / "s.csv"
    code = _synth(tmp_path, out, kernel=dict(keys, family="matern", beta=2.5),
                  knots={"fibonacci": 50},
                  sampling={"synthetic": {"kind": "scatter", "samples": 20}})
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and message in err
    assert not out.exists()


def test_reconstruct_rejects_string_mu(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", cost={"kind": "ls"},
                  solver={"kind": "tikhonov", "mu": "1e-3"})
    assert main(["reconstruct", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and "solver.mu must be a number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["reconstruct"],
    ["synth", "--output", "s.csv"],
    ["raster", "--coefficients", "c.csv", "--output", "r.csv"],
])
def test_repeated_config_key_fails_naming_it(tmp_path, capsys, monkeypatch, command):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out")
    text = cfg_path.read_text()
    cfg_path.write_text(text.replace('"lambda": 0.001', '"lambda": 0.5, "lambda": 0.001'))
    assert text != cfg_path.read_text()
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", "run.json"] + command[1:]) == 1
    assert capsys.readouterr().err == (
        "error [sphsplines.cli] ValueError: run.json: repeated config key 'lambda'\n")
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("text, flags, block", [
    ("[]", ["--seed", "3"], "a run config"),
    ('{"solver": "pds"}', ["--solver", "pds"], "solver"),
    ('{"outputs": "run"}', ["--output-dir", "o"], "outputs"),
], ids=["top", "solver", "outputs"])
def test_overrides_need_object_blocks(tmp_path, capsys, monkeypatch, text, flags, block):
    (tmp_path / "run.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(["reconstruct", "--config", "run.json"] + flags) == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and "%s must be an object" % block in err
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("sampling, message", [
    ({"synthetic": {"kind": "scatter", "bumps": 12}},
     "sampling.synthetic.bumps must be <= knots.fibonacci"),
    ({"scatter_csv": "s.csv"}, "synth needs a sampling.synthetic block"),
], ids=["bumps_above_knots", "no_synthetic_block"])
def test_synth_takes_the_run_config_checks(tmp_path, capsys, sampling, message):
    out = tmp_path / "s.csv"
    assert _synth(tmp_path, out, knots={"fibonacci": 10}, sampling=sampling) == 1
    err = capsys.readouterr().err
    assert err.count("error [") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {},
    {"cost": {"kind": "ls"}, "solver": {"kind": "tikhonov", "mu": 1e-3}},
], ids=["pds", "tikhonov"])
def test_raster_grids_the_field_the_run_wrote(tmp_path, overrides):
    cfg_path = tmp_path / "run.json"
    _write_config(cfg_path, tmp_path / "out", max_iter=400,
                  outputs={"directory": str(tmp_path / "out"),
                           "raster": {"n_lat": 6, "n_lon": 12, "path": "r.csv"}},
                  **overrides)
    assert main(["reconstruct", "--config", str(cfg_path)]) == 0
    out = tmp_path / "again.csv"
    assert main(["raster", "--config", str(cfg_path),
                 "--coefficients", str(tmp_path / "out" / "coefficients.csv"),
                 "--output", str(out), "--n-lat", "6", "--n-lon", "12"]) == 0
    _, run_values = load_scatter_csv(tmp_path / "out" / "r.csv")
    _, values = load_scatter_csv(out)
    assert np.abs(values - run_values).max() <= 1e-12 * np.abs(run_values).max()
