"""Seeded inputs for the benchmark workloads, and how each one is scored.

A workload writes a directory of files (CSV data plus a JSON run config)
from a seed; the program under test sees nothing else.  Generation also
builds the reference data that scoring needs (reference Gram matrix, LP
optimum, Tikhonov system), so none of it lands in a timed metric.

Scoring reads the files one CLI operation wrote and returns the certified
accuracy of the answer plus every check it failed.
"""

import json
import os

import numpy as np

import certify
from sphsplines.sphere import direction_from_lonlat, fibonacci_lattice

FMT = "%.17g"

# a coefficient counts as an active knot above this fraction of the largest
ACTIVE_REL = 1e-4
# the Tikhonov answer must solve (K + mu I) x = y to this relative residual
TIKHONOV_RESIDUAL_MAX = 1e-8


class Instance:
    """One generated workload: the CLI arguments and how to score a run.

    ``run_dirs`` are the directories one operation writes a manifest and a
    coefficient file into; ``score()`` returns ``(accuracy, problems)``
    where accuracy maps ``objective_gap_rel``, ``residual_rel`` and
    ``active_knots`` to numbers and problems lists failed checks.
    """

    def __init__(self, argv, out_dir, run_dirs, score, raster=None):
        self.argv = argv
        self.out_dir = out_dir
        self.run_dirs = run_dirs
        self.score = score
        self.raster = raster  # (n_lat, n_lon) written per run dir, or None


# ------------------------------------------------------------------ helpers


def _unit_rows(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _lonlat(dirs):
    lat = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
    return lon, lat


def _write_scatter(path, dirs, values):
    """Write samples; return (directions, values) exactly as the program
    reads them back (17-digit text round-trips float64)."""
    lon, lat = _lonlat(dirs)
    with open(path, "w", newline="") as fh:
        fh.write("lon_deg,lat_deg,value\n")
        for a, b, v in zip(lon, lat, values):
            fh.write("%s,%s,%s\n" % (FMT % a, FMT % b, FMT % v))
    return direction_from_lonlat(lon, lat), np.asarray(values, dtype=float)


def _noisy(rng, clean, psnr_db):
    sigma = np.abs(clean).max() * 10.0 ** (-psnr_db / 20.0)
    return clean + sigma * rng.standard_normal(clean.size)


def _residual_rel(A, x, y):
    return float(np.linalg.norm(A @ x - y) / np.linalg.norm(y))


def _planted(rng, n_pool, n_bumps, amp):
    coeffs = np.zeros(n_pool)
    idx = rng.choice(n_pool, size=n_bumps, replace=False)
    coeffs[idx] = rng.uniform(amp[0], amp[1], size=n_bumps)
    return coeffs


def _write_config(directory, spec):
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
    return path


def read_coefficients(run_dir):
    """The coefficient column of a coefficient CSV, parsed independently."""
    data = np.loadtxt(
        os.path.join(run_dir, "coefficients.csv"), delimiter=",", skiprows=1, ndmin=2
    )
    return data[:, 3]


def active_knots(x):
    return int(np.sum(np.abs(x) > ACTIVE_REL * np.abs(x).max()))


def _base_spec(kernel, n_knots, sampling, out_dir):
    return {
        "kernel": kernel,
        "knots": {"fibonacci": n_knots},
        "sampling": sampling,
        "outputs": {"directory": out_dir},
    }


# ------------------------------------------------------------ scatter-exact

SCATTER_EXACT = dict(epsilon=0.25, knots=200, samples=25, max_iter=15000)


def scatter_exact(seed, directory):
    p = SCATTER_EXACT
    rng = np.random.default_rng([seed, 1])
    knots = fibonacci_lattice(p["knots"]).points
    csv_path = os.path.join(directory, "samples.csv")
    dirs, y = _write_scatter(csv_path, _unit_rows(rng, p["samples"]),
                             rng.standard_normal(p["samples"]))
    G = certify.dirac_gram(certify.matern25_eq60(p["epsilon"]), dirs, knots)
    p_star, _ = certify.lp_optimum(G, y)
    out = os.path.join(directory, "out")
    spec = _base_spec(
        {"family": "matern", "beta": 2.5, "convention": "eq60",
         "epsilon": p["epsilon"]},
        p["knots"], {"scatter_csv": csv_path}, out,
    )
    spec.update(cost={"kind": "exact"}, solver={"kind": "pds"}, eps_stop=1e-7,
                max_iter=p["max_iter"])
    spec["lambda"] = 1.0
    config = _write_config(directory, spec)

    def score():
        x = read_coefficients(out)
        gap = abs(float(np.abs(x).sum()) - p_star) / p_star
        return {"objective_gap_rel": gap, "residual_rel": _residual_rel(G, x, y),
                "active_knots": active_knots(x), "active_bound": y.size}, []

    return Instance(["reconstruct", "--config", config], out, [out], score)


# ---------------------------------------------------------------- counts-kl

COUNTS_KL = dict(epsilon=0.3, knots=400, grid=(30, 60), Q=4, bumps=6,
                 peak_rate=12.0, lam_rel=0.05, max_iter=5000)


def counts_kl(seed, directory):
    p = COUNTS_KL
    rng = np.random.default_rng([seed, 2])
    knots = fibonacci_lattice(p["knots"]).points
    n_lat, n_lon = p["grid"]
    lat_e = np.linspace(-90.0, 90.0, n_lat + 1)
    lon_e = np.linspace(-180.0, 180.0, n_lon + 1)
    bounds = np.array([
        (lon_e[j], lon_e[j + 1], lat_e[i], lat_e[i + 1])
        for i in range(n_lat) for j in range(n_lon)
    ])
    G = certify.patch_gram(certify.wendland31(p["epsilon"]), bounds, knots, p["Q"])
    truth = _planted(rng, p["knots"], p["bumps"], (0.5, 2.0))
    rates = np.clip(G @ truth, 0.0, None)
    y = rng.poisson(p["peak_rate"] / rates.max() * rates).astype(float)
    lam = p["lam_rel"] * float(np.abs(G.T @ y).max())
    csv_path = os.path.join(directory, "counts.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("lon_min,lon_max,lat_min,lat_max,count\n")
        for b, c in zip(bounds, y):
            fh.write(",".join(FMT % v for v in b) + ",%d\n" % int(c))
    out = os.path.join(directory, "out")
    spec = _base_spec(
        {"family": "wendland", "d": 3, "k": 1, "epsilon": p["epsilon"]},
        p["knots"], {"patch_csv": csv_path, "quadrature_order": p["Q"]}, out,
    )
    spec.update(cost={"kind": "kl"}, solver={"kind": "pds"}, eps_stop=1e-6,
                max_iter=p["max_iter"])
    spec["lambda"] = lam
    config = _write_config(directory, spec)

    def score():
        x = read_coefficients(out)
        gap, _, _ = certify.duality_gap(G, y, lam, x, "kl")
        return {"objective_gap_rel": gap, "residual_rel": _residual_rel(G, x, y),
                "active_knots": active_knots(x)}, []

    return Instance(["reconstruct", "--config", config], out, [out], score)


# ---------------------------------------------------------- tikhonov-series

TIKHONOV = dict(epsilon=0.35, samples=450, mu=1e-3, pool=80, bumps=5,
                psnr_db=30.0, raster=(16, 32))


def tikhonov_series(seed, directory):
    p = TIKHONOV
    rng = np.random.default_rng([seed, 3])
    psi = certify.matern25_eq60(p["epsilon"])
    pool = fibonacci_lattice(p["pool"]).points
    truth = _planted(rng, p["pool"], p["bumps"], (0.5, 2.0))
    raw = _unit_rows(rng, p["samples"])
    clean = certify.dirac_gram(psi, raw, pool) @ truth
    csv_path = os.path.join(directory, "samples.csv")
    dirs, y = _write_scatter(csv_path, raw, _noisy(rng, clean, p["psnr_db"]))
    K = certify.series_gram(certify.legendre_coefficients(psi) ** 2, dirs)
    out = os.path.join(directory, "out")
    n_lat, n_lon = p["raster"]
    spec = _base_spec(
        {"family": "matern", "beta": 2.5, "convention": "eq60",
         "epsilon": p["epsilon"]},
        p["pool"], {"scatter_csv": csv_path}, out,
    )
    spec.update(cost={"kind": "ls"}, solver={"kind": "tikhonov", "mu": p["mu"]})
    spec["outputs"]["raster"] = {"n_lat": n_lat, "n_lon": n_lon,
                                 "path": "raster.csv"}
    config = _write_config(directory, spec)

    def score():
        x = read_coefficients(out)
        gap, system_residual = certify.tikhonov_gap(K, y, p["mu"], x)
        problems = []
        if not system_residual <= TIKHONOV_RESIDUAL_MAX:
            problems.append("||(K + mu I)x - y|| / ||y|| = %.3e > %.0e"
                            % (system_residual, TIKHONOV_RESIDUAL_MAX))
        return {"objective_gap_rel": gap, "residual_rel": _residual_rel(K, x, y),
                "active_knots": active_knots(x)}, problems

    return Instance(["reconstruct", "--config", config], out,
                    [out], score, raster=(n_lat, n_lon))


# ------------------------------------------------------------- sweep-raster

SWEEP = dict(epsilon=0.3, knots=400, samples=3000, bumps=8, psnr_db=30.0,
             lam_rel=(1e-3, 1e-1), count=5, raster=(90, 180))
# One fixed sample layout; the seed draws the field and the noise.  On 1 in
# 20 to 40 random layouts the top two singular values of G nearly coincide
# and gram.spectral_norm's power iteration exceeds its 5000-iteration cap
# (README.md, "Baseline findings"), which would fail every operation.
SWEEP_LAYOUT = [0, 4]


def sweep_raster(seed, directory):
    p = SWEEP
    rng = np.random.default_rng([seed, 4])
    psi = certify.wendland31(p["epsilon"])
    knots = fibonacci_lattice(p["knots"]).points
    truth = _planted(rng, p["knots"], p["bumps"], (-2.0, 2.0))
    raw = _unit_rows(np.random.default_rng(SWEEP_LAYOUT), p["samples"])
    clean = certify.dirac_gram(psi, raw, knots) @ truth
    csv_path = os.path.join(directory, "samples.csv")
    dirs, y = _write_scatter(csv_path, raw, _noisy(rng, clean, p["psnr_db"]))
    G = certify.dirac_gram(psi, dirs, knots)
    lam_max = float(np.abs(G.T @ y).max())
    out = os.path.join(directory, "out")
    n_lat, n_lon = p["raster"]
    spec = _base_spec(
        {"family": "wendland", "d": 3, "k": 1, "epsilon": p["epsilon"]},
        p["knots"], {"scatter_csv": csv_path}, out,
    )
    spec.update(cost={"kind": "ls"}, solver={"kind": "apgd"}, eps_stop=1e-4)
    spec["outputs"]["raster"] = {"n_lat": n_lat, "n_lon": n_lon,
                                 "path": "raster.csv"}
    config = _write_config(directory, spec)
    lo, hi = (r * lam_max for r in p["lam_rel"])
    run_dirs = [os.path.join(out, "lambda_%02d" % i) for i in range(p["count"])]

    def score():
        gaps, residuals, active = [], [], []
        for run_dir in run_dirs:
            with open(os.path.join(run_dir, "manifest.json")) as fh:
                lam = float(json.load(fh)["config"]["lambda"])
            x = read_coefficients(run_dir)
            gaps.append(certify.duality_gap(G, y, lam, x, "ls")[0])
            residuals.append(_residual_rel(G, x, y))
            active.append(active_knots(x))
        # worst case over the sweep
        return {"objective_gap_rel": max(gaps), "residual_rel": max(residuals),
                "active_knots": max(active)}, []

    argv = ["reconstruct", "--config", config,
            "--lambda-sweep", FMT % lo, FMT % hi, str(p["count"])]
    return Instance(argv, out, run_dirs, score,
                    raster=(n_lat, n_lon))


WORKLOADS = {
    "scatter-exact": scatter_exact,
    "counts-kl": counts_kl,
    "tikhonov-series": tikhonov_series,
    "sweep-raster": sweep_raster,
}
