"""End-to-end reconstruction runs.

Wires the pieces together: JSON run configs, scatter/patch-count CSV I/O,
synthetic data generation (planted splines, Gaussian noise by PSNR, Poisson
counts), the solve itself, and the exported artifacts (coefficient CSV,
objective trace, raster grid, JSON manifest).  Runs with the same config and
seed write byte-identical coefficient files.
"""

import copy
import csv
import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .gram import DiracFunctional, PatchFunctional, assemble_gram, knot_gram
from .kernels import (
    ZonalKernel,
    epsilon_for_fwhm,
    matern_zonal,
    self_convolve,
    sobolev_green_zonal,
    wendland_zonal,
)
from .prox import KL, L1, ExactMatch, L2Ball, LeastSquares
from .solvers import SolverConfig, apgd_solve, pds_solve, tikhonov_solve
from .sphere import (
    KnotSet,
    PatchBounds,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
    lonlat_from_direction,
)
from .spline import SplineField, evaluate, sparsity_report, synthesize

# shortest representation that round-trips float64 exactly
FLOAT_FMT = "%.17g"

SCATTER_HEADER = ["lon_deg", "lat_deg", "value"]
COUNTS_HEADER = ["lon_min", "lon_max", "lat_min", "lat_max", "count"]
COEFF_HEADER = ["index", "lon_deg", "lat_deg", "coeff"]


# ----------------------------------------------------------------- CSV I/O


def _parse_float(text, path, line_no, what):
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            "%s line %d: cannot parse %s from %r" % (path, line_no, what, text)
        )


def _csv_rows(path, header):
    """Yield (line number, fields) of each nonempty data row after checking
    the header line and every row's field count."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ValueError("%s: expected header %s" % (path, ",".join(header)))
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError("%s line %d: expected %d fields, got %d"
                                 % (path, line_no, len(header), len(row)))
            yield line_no, row


def load_scatter_csv(path):
    """Read point samples: header ``lon_deg,lat_deg,value``.

    Returns
    -------
    (directions, values)
        ``(M, 3)`` unit directions and an ``(M,)`` value vector; both empty
        for a header-only file.
    """
    lons, lats, values = [], [], []
    for line_no, row in _csv_rows(path, SCATTER_HEADER):
        lon = _parse_float(row[0], path, line_no, "lon_deg")
        lat = _parse_float(row[1], path, line_no, "lat_deg")
        if not -90.0 <= lat <= 90.0:
            raise ValueError("%s line %d: latitude %g out of [-90, 90]" % (path, line_no, lat))
        lons.append(lon)
        lats.append(lat)
        values.append(_parse_float(row[2], path, line_no, "value"))
    if not lons:
        return np.empty((0, 3)), np.empty(0)
    return direction_from_lonlat(np.array(lons), np.array(lats)), np.array(values)


def save_scatter_csv(path, lon_deg, lat_deg, values):
    """Write point samples in the `load_scatter_csv` format (17 digits)."""
    lon_deg, lat_deg, values = map(np.atleast_1d, (lon_deg, lat_deg, values))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SCATTER_HEADER) + "\n")
        fh.writelines(
            "%s,%s,%s\n" % (FLOAT_FMT % a, FLOAT_FMT % b, FLOAT_FMT % v)
            for a, b, v in zip(lon_deg, lat_deg, values)
        )


def load_patch_counts_csv(path):
    """Read binned counts: header ``lon_min,lon_max,lat_min,lat_max,count``.

    Counts must be nonnegative integers; patches may overlap.
    """
    bounds, counts = [], []
    for line_no, row in _csv_rows(path, COUNTS_HEADER):
        edges = [_parse_float(row[i], path, line_no, COUNTS_HEADER[i]) for i in range(4)]
        try:
            count = int(row[4])
        except ValueError:
            raise ValueError(
                "%s line %d: count must be an integer, got %r"
                % (path, line_no, row[4])
            )
        if count < 0:
            raise ValueError("%s line %d: negative count %d" % (path, line_no, count))
        try:
            bounds.append(PatchBounds(*edges))
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, line_no, exc))
        counts.append(count)
    return bounds, np.array(counts, dtype=float)


def save_patch_counts_csv(path, bounds, counts):
    """Write binned counts in the `load_patch_counts_csv` format."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COUNTS_HEADER) + "\n")
        for b, c in zip(bounds, counts):
            fields = [FLOAT_FMT % u for u in (b.lon_min, b.lon_max, b.lat_min, b.lat_max)]
            fh.write(",".join(fields) + ",%d\n" % int(c))


def save_coefficients_csv(path, field):
    """Write ``index,lon_deg,lat_deg,coeff`` rows for a spline field."""
    lon, lat = lonlat_from_direction(field.knots.points)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COEFF_HEADER) + "\n")
        fh.writelines(
            "%d,%s,%s,%s\n" % (i, FLOAT_FMT % lon[i], FLOAT_FMT % lat[i], FLOAT_FMT % c)
            for i, c in enumerate(field.coeffs)
        )


def load_coefficients_csv(path):
    """Read a coefficient file back into (directions, coeffs)."""
    lons, lats, coeffs = [], [], []
    for line_no, row in _csv_rows(path, COEFF_HEADER):
        lons.append(_parse_float(row[1], path, line_no, "lon_deg"))
        lats.append(_parse_float(row[2], path, line_no, "lat_deg"))
        coeffs.append(_parse_float(row[3], path, line_no, "coeff"))
    return (
        direction_from_lonlat(np.array(lons), np.array(lats)),
        np.array(coeffs),
    )


# -------------------------------------------------------- synthetic sources


def plant_spline(kernel, pool, n_bumps, amplitude_range, seed):
    """Ground-truth field: n_bumps knots drawn uniformly from the pool.

    Amplitudes are uniform over ``amplitude_range`` (use a negative lower
    bound for signed fields; keep it positive when the field feeds a Poisson
    rate).  Deterministic for a given seed.
    """
    n_bumps = int(n_bumps)
    if n_bumps < 1:
        raise ValueError("n_bumps must be >= 1")
    if n_bumps > len(pool):
        raise ValueError("pool has only %d knots" % len(pool))
    lo, hi = map(float, amplitude_range)
    if not lo < hi:
        raise ValueError("amplitude_range must be increasing")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pool), size=n_bumps, replace=False)
    coeffs = np.zeros(len(pool))
    coeffs[idx] = rng.uniform(lo, hi, size=n_bumps)
    return SplineField(kernel, pool, coeffs)


def add_gaussian_noise(values, psnr_db, seed):
    """Additive white noise with sigma = max|value| / 10^(psnr_db / 20)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    peak = np.abs(values).max()
    if peak == 0.0:
        raise ValueError("all-zero signal: peak signal-to-noise undefined")
    # negative exponent so extreme PSNR underflows to sigma = 0 cleanly
    sigma = peak * 10.0 ** (-psnr_db / 20.0)
    rng = np.random.default_rng(seed)
    return values + sigma * rng.standard_normal(values.shape)


def poisson_counts(rates, seed):
    """Seeded Poisson deviates, one per rate."""
    rates = np.asarray(rates, dtype=float)
    if np.any(~np.isfinite(rates)) or np.any(rates < 0):
        raise ValueError("rates must be finite and >= 0")
    rng = np.random.default_rng(seed)
    return rng.poisson(rates)


def random_directions(n, seed):
    """n directions drawn uniformly on the sphere (normalised Gaussians)."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((int(n), 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def synthetic_measurements(synth, kernel, knots):
    """(functionals, y, G) measuring a planted spline, per a complete
    ``sampling.synthetic`` block (as `RunConfig` fills it in); G is the
    patch Gram counts were drawn through (None for scatter).

    The field plants its bumps at ``seed``; scatter directions use seed + 1
    and noise seed + 2, Poisson counts seed + 1.
    """
    seed = synth["seed"]
    offset = lambda k: None if seed is None else seed + k
    truth = plant_spline(kernel, knots, synth["bumps"], synth["amplitude"], seed)
    if synth["kind"] == "scatter":
        dirs = random_directions(synth["samples"], offset(1))
        values = evaluate(truth, dirs)
        if synth["psnr_db"] is not None:
            values = add_gaussian_noise(values, float(synth["psnr_db"]), offset(2))
        return [DiracFunctional(d) for d in dirs], values, None
    n_lat, n_lon = synth["grid"]
    Q = synth["quadrature_order"]
    functionals = [PatchFunctional(b, Q) for b in equal_angle_patch_grid(n_lat, n_lon)]
    G = assemble_gram(kernel, functionals, knots)
    rates = float(synth["rate_scale"]) * np.clip(G.matvec(truth.coeffs), 0.0, None)
    counts = poisson_counts(rates, offset(1))
    return functionals, counts.astype(float), G


# -------------------------------------------------------------- run configs

# cost.kind -> the data-fit model for a cost block and measurements y
_COST_KINDS = {
    "exact": lambda cost, y: ExactMatch(y),
    "l2ball": lambda cost, y: L2Ball(y, float(cost["rho_rel"]) * np.linalg.norm(y)),
    "l1": lambda cost, y: L1(y),
    "kl": lambda cost, y: KL(y),
    "ls": lambda cost, y: LeastSquares(y),
}
_SOLVER_KINDS = ("pds", "apgd", "tikhonov")

# the names a run config may use, per block (the README's reference)
_SCALE_KEYS = ("family", "epsilon", "fwhm_deg")
_KERNEL_KEYS = {
    "matern": _SCALE_KEYS + ("beta", "convention"),
    "wendland": _SCALE_KEYS + ("k", "d"),
    "sobolev": ("family", "beta", "tol"),
}
_SYNTH_KEYS = {
    "scatter": ("kind", "bumps", "amplitude", "seed", "samples", "psnr_db"),
    "counts": ("kind", "bumps", "amplitude", "seed", "grid", "rate_scale",
               "quadrature_order"),
}


def _check_keys(block, allowed, path):
    """Reject any key of ``block`` outside ``allowed``, naming its dotted path."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError("unknown config key %s%s (allowed here: %s)"
                         % (path, unknown[0], ", ".join(sorted(allowed))))


def _check_int(value, path, lowest):
    """``value`` if it is an integer >= ``lowest`` (not a bool), else an
    error naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
        raise ValueError("%s must be an integer >= %d" % (path, lowest))
    return value


class RunConfig:
    """Validated reconstruction run description (one JSON document).

    See `to_dict` for the normalised layout; every default the run uses is
    explicit there, and the manifest echoes it.
    """

    def __init__(self, spec):
        spec = dict(spec)
        _check_keys(spec, ("kernel", "knots", "sampling", "cost", "solver", "lambda",
                           "eps_stop", "max_iter", "seed", "outputs"), "")
        kernel = dict(spec.get("kernel") or {})
        family = kernel.get("family")
        if family not in _KERNEL_KEYS:
            raise ValueError("kernel.family must be matern, wendland or sobolev")
        _check_keys(kernel, _KERNEL_KEYS[family], "kernel.")
        if family != "sobolev" and ("epsilon" in kernel) == ("fwhm_deg" in kernel):
            raise ValueError("kernel needs exactly one of epsilon / fwhm_deg")
        if family == "matern":
            kernel.setdefault("convention", "standard")
        elif family == "wendland":
            kernel.setdefault("d", 3)
        self.kernel_spec = kernel

        knots = dict(spec.get("knots") or {})
        _check_keys(knots, ("fibonacci",), "knots.")
        self.n_knots = _check_int(knots.get("fibonacci"), "knots.fibonacci", 1)
        self.seed = spec.get("seed")
        if self.seed is not None:
            _check_int(self.seed, "seed", 0)

        sampling = dict(spec.get("sampling") or {})
        sources = [k for k in ("scatter_csv", "patch_csv", "synthetic") if k in sampling]
        if len(sources) != 1:
            raise ValueError(
                "sampling must name exactly one source "
                "(scatter_csv | patch_csv | synthetic)"
            )
        allowed = sources + (["quadrature_order"] if "patch_csv" in sampling else [])
        _check_keys(sampling, allowed, "sampling.")
        if "patch_csv" in sampling:
            sampling.setdefault("quadrature_order", 8)
            _check_int(sampling["quadrature_order"], "sampling.quadrature_order", 1)
        if "synthetic" in sampling:
            synth = dict(sampling["synthetic"])
            if synth.get("kind") not in _SYNTH_KEYS:
                raise ValueError("synthetic.kind must be scatter or counts")
            _check_keys(synth, _SYNTH_KEYS[synth["kind"]], "sampling.synthetic.")
            synth.setdefault("bumps", 8)
            synth.setdefault("amplitude", [0.5, 2.0])
            synth.setdefault("seed", self.seed)
            if synth["kind"] == "scatter":
                synth.setdefault("samples", 3 * self.n_knots)
                synth.setdefault("psnr_db", None)
                int_keys = ("bumps", "samples")
            else:
                synth.setdefault("grid", [12, 24])
                synth.setdefault("rate_scale", 1.0)
                synth.setdefault("quadrature_order", 8)
                int_keys = ("bumps", "quadrature_order")
                grid = synth["grid"]
                if not isinstance(grid, (list, tuple)) or len(grid) != 2:
                    raise ValueError("sampling.synthetic.grid must be [n_lat, n_lon]")
                for i, n in enumerate(grid):
                    _check_int(n, "sampling.synthetic.grid[%d]" % i, 1)
            for key in int_keys:
                _check_int(synth[key], "sampling.synthetic." + key, 1)
            if synth["seed"] is not None:
                _check_int(synth["seed"], "sampling.synthetic.seed", 0)
            sampling = {"synthetic": synth}
        self.sampling = sampling

        cost = dict(spec.get("cost") or {})
        _check_keys(cost, ("kind", "rho_rel"), "cost.")
        if cost.get("kind") not in _COST_KINDS:
            raise ValueError("cost.kind must be one of %s" % (tuple(_COST_KINDS),))
        cost.setdefault("rho_rel", None)
        rho = cost["rho_rel"]
        if rho is not None and (isinstance(rho, bool)
                                or not isinstance(rho, (int, float))):
            raise ValueError("cost.rho_rel must be a number")
        if cost["kind"] == "l2ball" and not (rho or 0) > 0:
            raise ValueError("l2ball cost needs rho_rel > 0")
        self.cost = cost

        solver = dict(spec.get("solver") or {})
        _check_keys(solver, ("kind", "mu"), "solver.")
        if solver.get("kind") not in _SOLVER_KINDS:
            raise ValueError("solver.kind must be one of %s" % (_SOLVER_KINDS,))
        if solver["kind"] == "apgd" and cost["kind"] != "ls":
            raise ValueError("apgd needs the smooth ls cost")
        if solver["kind"] == "tikhonov" and not solver.get("mu", 0) > 0:
            raise ValueError("tikhonov solver needs mu > 0")
        solver.setdefault("mu", None)
        self.solver = solver

        self.lam = float(spec.get("lambda", 0.0))
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        self.eps_stop = float(spec.get("eps_stop", 1e-4))
        if not self.eps_stop > 0:
            raise ValueError("eps_stop must be > 0")
        self.max_iter = _check_int(spec.get("max_iter", 20000), "max_iter", 1)

        outputs = dict(spec.get("outputs") or {})
        _check_keys(outputs, ("directory", "coefficients", "manifest", "trace",
                              "raster"), "outputs.")
        outputs.setdefault("directory", ".")
        outputs.setdefault("coefficients", "coefficients.csv")
        outputs.setdefault("manifest", "manifest.json")
        outputs.setdefault("trace", "trace.csv")
        outputs.setdefault("raster", None)
        if outputs["raster"] is not None:
            raster = dict(outputs["raster"])
            _check_keys(raster, ("n_lat", "n_lon", "path"), "outputs.raster.")
            for key in ("n_lat", "n_lon", "path"):
                if key not in raster:
                    raise ValueError("outputs.raster needs n_lat, n_lon, path")
            for key in ("n_lat", "n_lon"):
                _check_int(raster[key], "outputs.raster." + key, 2)
            outputs["raster"] = raster
        self.outputs = outputs

    def to_dict(self):
        return {
            "kernel": dict(self.kernel_spec),
            "knots": {"fibonacci": self.n_knots},
            "sampling": self.sampling,
            "cost": dict(self.cost),
            "solver": dict(self.solver),
            "lambda": self.lam,
            "eps_stop": self.eps_stop,
            "max_iter": self.max_iter,
            "seed": self.seed,
            "outputs": self.outputs,
        }

    def output_path(self, name):
        value = self.outputs[name] if name != "raster" else self.outputs["raster"]["path"]
        return os.path.join(self.outputs["directory"], value)  # absolute paths stay


def build_kernel(spec):
    """ZonalKernel from a config kernel spec (dict)."""
    family = spec.get("family")
    if family in ("matern", "sobolev") and spec.get("beta") is None:
        raise ValueError("%s kernel needs beta" % family)
    if family == "sobolev":
        return sobolev_green_zonal(float(spec["beta"]), tol=spec.get("tol", 1e-8))
    if family == "matern":
        beta = float(spec["beta"])
        convention = spec.get("convention", "standard")
        factory = lambda eps: matern_zonal(beta, eps, convention=convention)
    elif family == "wendland":
        if spec.get("k") is None:
            raise ValueError("wendland kernel needs the smoothness index k")
        d, k = int(spec.get("d", 3)), int(spec["k"])
        factory = lambda eps: wendland_zonal(d, k, eps)
    else:
        raise ValueError("unknown kernel family %r" % (family,))
    if "fwhm_deg" in spec:
        eps = epsilon_for_fwhm(factory, float(spec["fwhm_deg"]))
    else:
        eps = float(spec["epsilon"])
    return factory(eps)


class RunManifest:
    """Run summary written alongside the artifacts."""

    def __init__(self, data):
        self.data = dict(data)

    def __getitem__(self, key):
        return self.data[key]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_measurements(cfg, kernel, knots):
    # (functionals, y, G): G is the Gram synthetic counts came from, or None
    if "scatter_csv" in cfg.sampling:
        dirs, values = load_scatter_csv(cfg.sampling["scatter_csv"])
        if len(values) == 0:
            raise ValueError("scatter file %r has no rows" % cfg.sampling["scatter_csv"])
        return [DiracFunctional(d) for d in dirs], values, None
    if "patch_csv" in cfg.sampling:
        bounds, counts = load_patch_counts_csv(cfg.sampling["patch_csv"])
        if len(counts) == 0:
            raise ValueError("patch file %r has no rows" % cfg.sampling["patch_csv"])
        Q = cfg.sampling["quadrature_order"]
        return [PatchFunctional(b, Q) for b in bounds], counts, None
    return synthetic_measurements(cfg.sampling["synthetic"], kernel, knots)


class _Setup:
    """What a run needs before lambda enters, built once per sweep: kernel,
    knots, measurements, cost model, and the system matrix (G, whose spectral
    norm is cached on first use, or the quadratic baseline's K)."""

    def __init__(self, cfg):
        started = time.perf_counter()
        kernel = build_kernel(cfg.kernel_spec)
        knots = fibonacci_lattice(cfg.n_knots)
        functionals, self.y, self.G = _load_measurements(cfg, kernel, knots)
        self.model = _COST_KINDS[cfg.cost["kind"]](cfg.cost, self.y)
        if cfg.solver["kind"] == "tikhonov":
            if not all(isinstance(f, DiracFunctional) for f in functionals):
                raise ValueError("the quadratic baseline supports point samples only")
            self.field_knots = np.array([f.direction for f in functionals])
            conv = self_convolve(kernel.series())
            self.K = knot_gram(conv, KnotSet(self.field_knots))
            self.field_kernel = ZonalKernel.from_series(conv, family="self_convolved")
        else:
            if self.G is None:
                self.G = assemble_gram(kernel, functionals, knots)
            self.field_kernel, self.field_knots = kernel, knots
        self.seconds = time.perf_counter() - started


def _run_point(cfg, setup):
    """Solve at ``cfg.lam`` and write all artifacts; wall time counts the setup."""
    started = time.perf_counter()
    os.makedirs(cfg.outputs["directory"], exist_ok=True)
    y, model = setup.y, setup.model
    if cfg.solver["kind"] == "tikhonov":
        K = setup.K
        mu = float(cfg.solver["mu"])
        x = tikhonov_solve(K, y, mu)
        Kx = K @ x
        misfit = float(np.linalg.norm(Kx - y))
        trace, iterations, converged = [misfit**2 + mu * float(x @ Kx)], 1, True
        residuals = {
            "system_relative": float(
                np.linalg.norm(Kx + mu * x - y) / max(np.linalg.norm(y), 1e-300)
            ),
            "data_misfit": misfit,
        }
    else:
        G = setup.G
        solver_cfg = SolverConfig(cfg.lam, eps_stop=cfg.eps_stop, max_iter=cfg.max_iter)
        solve = apgd_solve if cfg.solver["kind"] == "apgd" else pds_solve
        result = solve(G, model, solver_cfg)
        x, trace = result.x, result.objective_trace
        iterations, converged = result.iterations, result.converged
        residuals = {
            "primal_step": result.primal_residual,
            "data_misfit": float(np.linalg.norm(G.matvec(x) - y)),
        }
    field = synthesize(setup.field_kernel, setup.field_knots, x)

    coeff_path = cfg.output_path("coefficients")
    save_coefficients_csv(coeff_path, field)
    trace_path = cfg.output_path("trace")
    with open(trace_path, "w", newline="") as fh:
        fh.write("iteration,objective\n")
        fh.writelines("%d,%s\n" % (i, FLOAT_FMT % v) for i, v in enumerate(trace, 1))
    raster_path = None
    if cfg.outputs["raster"] is not None:
        raster = cfg.outputs["raster"]
        raster_path = cfg.output_path("raster")
        export_raster(field, int(raster["n_lat"]), int(raster["n_lon"]), raster_path)

    manifest = RunManifest(
        {
            "config": cfg.to_dict(),
            "iterations": int(iterations),
            "converged": bool(converged),
            "final_objective": float(trace[-1]),
            "residual_norms": residuals,
            "sparsity_count": sparsity_report(field).count,
            "wall_time_s": setup.seconds + time.perf_counter() - started,
            "library_version": __version__,
            "rng_seed": cfg.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": {
                "coefficients": coeff_path,
                "trace": trace_path,
                "raster": raster_path,
                "manifest": cfg.output_path("manifest"),
            },
        }
    )
    manifest.write(cfg.output_path("manifest"))
    return manifest


def run_reconstruction(config):
    """Execute one reconstruction run and write all artifacts.

    Returns
    -------
    RunManifest
        Also written as JSON to the configured manifest path.
    """
    cfg = config if isinstance(config, RunConfig) else RunConfig(config)
    return _run_point(cfg, _Setup(cfg))


def run_lambda_sweep(config, lambdas):
    """One run per penalty weight, sharing one setup; yields each manifest.

    Point i writes into ``lambda_NN/`` (NN = i) of the output directory the
    files a single run with that ``lambda`` and directory writes.
    """
    cfg = config if isinstance(config, RunConfig) else RunConfig(config)
    setup = _Setup(cfg)
    for i, lam in enumerate(lambdas):
        point = copy.copy(cfg)
        point.lam = float(lam)
        point.outputs = dict(
            cfg.outputs, directory=os.path.join(cfg.outputs["directory"], "lambda_%02d" % i)
        )
        yield _run_point(point, setup)


def export_raster(field, n_lat, n_lon, path):
    """Write ``lon_deg,lat_deg,value`` at the cell centres of an equal-angle
    grid (south-to-north rows, west-to-east columns)."""
    n_lat, n_lon = int(n_lat), int(n_lon)
    if n_lat < 2 or n_lon < 2:
        raise ValueError("raster needs n_lat, n_lon >= 2")
    lat = -90.0 + (np.arange(n_lat) + 0.5) * (180.0 / n_lat)
    lon = -180.0 + (np.arange(n_lon) + 0.5) * (360.0 / n_lon)
    lon_grid, lat_grid = np.meshgrid(lon, lat)  # (n_lat, n_lon)
    lon_flat, lat_flat = lon_grid.ravel(), lat_grid.ravel()
    dirs = direction_from_lonlat(lon_flat, lat_flat)
    save_scatter_csv(path, lon_flat, lat_flat, evaluate(field, dirs))
    return path
