"""End-to-end reconstruction runs.

Wires the pieces together: JSON run configs, scatter/patch-count CSV I/O,
synthetic data generation (planted splines, Gaussian noise by PSNR, Poisson
counts), the solve itself, and the exported artifacts (coefficient CSV,
objective trace, raster grid, JSON manifest).  Runs with the same config and
seed write byte-identical coefficient files.
"""

import csv
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .gram import (
    DiracFunctional,
    PatchFunctional,
    assemble_gram,
    knot_gram,
    spectral_norm,
)
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
    check_integer,
    check_number,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
    lonlat_from_direction,
)
from .spline import RasterGrid, SplineField, evaluate, sparsity_report

# shortest representation that round-trips float64 exactly
FLOAT_FMT = "%.17g"

SCATTER_HEADER = ["lon_deg", "lat_deg", "value"]
COUNTS_HEADER = ["lon_min", "lon_max", "lat_min", "lat_max", "count"]
COEFF_HEADER = ["index", "lon_deg", "lat_deg", "coeff"]
TRACE_HEADER = ["iteration", "objective"]


# ----------------------------------------------------------------- CSV I/O
#
# One writer and one reader serve every table; each load_*/save_* pair fixes
# its format's header and column order.


def write_table(path, header, columns):
    """Write ``header`` and one row per entry of the equal-length
    ``columns`` to the file ``path`` (standard output when None): integer
    columns as ``%d``, text (str) columns as they are, every other column as
    FLOAT_FMT.  The columns are checked before the file is opened, so
    columns of unequal lengths raise ValueError and leave an existing file
    as it was."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError("columns %s have unequal lengths %s"
                         % (",".join(header), lengths))
    row = ",".join("%s" if c.dtype.kind == "U"
                   else "%d" if np.issubdtype(c.dtype, np.integer) else FLOAT_FMT
                   for c in columns) + "\n"
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def _directions(path, lines, lon, lat):
    """Unit directions of a table's lon/lat columns; a latitude outside
    [-90, 90] raises ValueError naming the file and line."""
    bad = np.flatnonzero(~((-90.0 <= lat) & (lat <= 90.0)))
    if bad.size:
        raise ValueError("%s line %d: latitude %g out of [-90, 90]"
                         % (path, lines[bad[0]], lat[bad[0]]))
    return direction_from_lonlat(lon, lat)


def read_table(path, header, kinds):
    """(line numbers, columns) of the nonempty rows of a table file.

    The first line must be ``header``; each row must have one field per
    column, parsed by that column's kind in ``kinds`` (int or float) to a
    finite value.  ``columns`` is a (len(header), rows) float array with
    contiguous rows.  A bad header, field count or field raises ValueError
    naming the file and line.
    """
    lines, rows = [], []
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
            values = []
            for name, kind, text in zip(header, kinds, row):
                try:
                    value = kind(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    what = "an integer" if kind is int else "a finite number"
                    raise ValueError("%s line %d: %s must be %s, got %r"
                                     % (path, line_no, name, what, text))
                values.append(value)
            lines.append(line_no)
            rows.append(values)
    return lines, np.array(rows, dtype=float).reshape(-1, len(header)).T.copy()


def load_scatter_csv(path):
    """Read point samples: header ``lon_deg,lat_deg,value``.

    Returns
    -------
    (directions, values)
        ``(M, 3)`` unit directions and an ``(M,)`` value vector; both empty
        for a header-only file.
    """
    lines, (lon, lat, values) = read_table(path, SCATTER_HEADER, (float,) * 3)
    return _directions(path, lines, lon, lat), values


def save_scatter_csv(path, lon_deg, lat_deg, values):
    """Write point samples in the `load_scatter_csv` format."""
    write_table(path, SCATTER_HEADER, np.atleast_1d(lon_deg, lat_deg, values))


def load_patch_counts_csv(path):
    """Read binned counts: header ``lon_min,lon_max,lat_min,lat_max,count``.

    Counts must be nonnegative integers; patches may overlap.
    """
    lines, table = read_table(path, COUNTS_HEADER, (float,) * 4 + (int,))
    bounds = []
    for line_no, (*edges, count) in zip(lines, table.T.tolist()):
        if count < 0:
            raise ValueError("%s line %d: negative count %d" % (path, line_no, count))
        try:
            bounds.append(PatchBounds(*edges))
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, line_no, exc))
    return bounds, table[4]


def save_patch_counts_csv(path, bounds, counts):
    """Write binned counts in the `load_patch_counts_csv` format; a count
    that is not a nonnegative integer raises ValueError naming its index."""
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    bad = np.flatnonzero(~((counts >= 0) & (counts == np.round(counts))
                           & np.isfinite(counts)))
    if bad.size:
        raise ValueError("counts[%d] must be a nonnegative integer, got %r"
                         % (bad[0], counts[bad[0]].item()))
    edges = [[getattr(b, name) for b in bounds] for name in COUNTS_HEADER[:4]]
    write_table(path, COUNTS_HEADER, edges + [counts.astype(int)])


def save_coefficients_csv(path, field):
    """Write ``index,lon_deg,lat_deg,coeff`` rows for a spline field."""
    lon, lat = lonlat_from_direction(field.knots.points)
    write_table(path, COEFF_HEADER,
                [np.arange(len(field.coeffs)), lon, lat, field.coeffs])


def load_coefficients_csv(path):
    """Read a coefficient file back into (directions, coeffs)."""
    lines, (_, lon, lat, coeffs) = read_table(path, COEFF_HEADER, (int,) + (float,) * 3)
    return _directions(path, lines, lon, lat), coeffs


# -------------------------------------------------------- synthetic sources


def plant_spline(kernel, pool, n_bumps, amplitude_range, seed):
    """Ground-truth field: n_bumps knots drawn uniformly from the pool.

    Amplitudes are uniform over ``amplitude_range`` (use a negative lower
    bound for signed fields; keep it positive when the field feeds a Poisson
    rate).  Deterministic for a given seed.
    """
    n_bumps, seed = check_integer(n_bumps, "n_bumps", 1), _seed(seed, "seed")
    if n_bumps > len(pool):
        raise ValueError("pool has only %d knots" % len(pool))
    lo, hi = _range(amplitude_range, "amplitude_range")
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
    if not 0.0 < peak < math.inf:
        raise ValueError("all-zero or non-finite signal: peak signal-to-noise undefined")
    # negative exponent so extreme PSNR underflows to sigma = 0 cleanly
    sigma = peak * 10.0 ** (-check_number(psnr_db, "psnr_db") / 20.0)
    rng = np.random.default_rng(_seed(seed, "seed"))
    return values + sigma * rng.standard_normal(values.shape)


def poisson_counts(rates, seed):
    """Seeded Poisson deviates, one per rate."""
    rates = np.asarray(rates, dtype=float)
    if np.any(~np.isfinite(rates)) or np.any(rates < 0):
        raise ValueError("rates must be finite and >= 0")
    rng = np.random.default_rng(_seed(seed, "seed"))
    return rng.poisson(rates)


def random_directions(n, seed):
    """n directions drawn uniformly on the sphere (normalised Gaussians)."""
    n = check_integer(n, "n", 1)
    rng = np.random.default_rng(_seed(seed, "seed"))
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def synthetic_measurements(synth, kernel, knots, stages=None):
    """(functionals, y, G) measuring a planted spline, per a complete
    ``sampling.synthetic`` block (as `RunConfig` fills it in); G is the
    patch Gram counts were drawn through (None for scatter), its assembly
    timed into the dict ``stages``, if given.

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
            values = add_gaussian_noise(values, synth["psnr_db"], offset(2))
        return [DiracFunctional(d) for d in dirs], values, None
    n_lat, n_lon = synth["grid"]
    Q = synth["quadrature_order"]
    functionals = [PatchFunctional(b, Q) for b in equal_angle_patch_grid(n_lat, n_lon)]
    G = _timed({} if stages is None else stages, "assemble",
               assemble_gram, kernel, functionals, knots)
    rates = synth["rate_scale"] * np.clip(G.matvec(truth.coeffs), 0.0, None)
    counts = poisson_counts(rates, offset(1))
    return functionals, counts.astype(float), G


# -------------------------------------------------------------- run configs
#
# The run-config format, one table per block: key -> (check, default).  A
# check takes (value, dotted path) and returns the value, numbers as floats,
# or raises ValueError naming the path.  A missing key's default goes through
# its check too, so a key whose check rejects None is required.


def _int(lowest, what="an integer"):
    """Check: an integer >= ``lowest``, by `check_integer`."""
    return lambda value, path: check_integer(value, path, lowest, what)


def _number(rule="", ok=None):
    """Check: a finite number passing ``ok``, if given (described by
    ``rule``), as a float, by `check_number`."""
    return lambda value, path: check_number(value, path, ok, rule)


def _nullable(check):
    return lambda value, path: None if value is None else check(value, path)


# a seed of the run config or of a synthetic source: None, or an integer >= 0
_seed = _nullable(_int(0))


def _choice(*options):
    def check(value, path):
        if value not in options:
            raise ValueError("%s must be one of %s" % (path, ", ".join(options)))
        return value
    return check


def _text(value, path):
    """Check: a string (a file or directory name)."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string" % path)
    return value


def _pair(check, what):
    def pair(value, path):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError("%s must be %s" % (path, what))
        return [check(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    return pair


def _range(value, path):
    """Check: two numbers [low, high] with low < high."""
    low, high = _pair(_number(), "two numbers [low, high]")(value, path)
    if not low < high:
        raise ValueError("%s must be increasing: low < high" % path)
    return [low, high]


def check_object(value, path):
    """``value`` if it is a JSON object; an absent block reads as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError("%s must be an object" % (path or "a run config"))
    return value


def _block(rules):
    """Check: a block with each key of ``rules`` checked and defaulted; any
    other key fails, naming its dotted path."""
    def block(value, path):
        value = check_object(value, path)
        prefix = path + "." if path else ""
        unknown = sorted(set(value) - set(rules))
        if unknown:
            raise ValueError("unknown config key %s%s (allowed here: %s)"
                             % (prefix, unknown[0], ", ".join(sorted(rules))))
        return {key: check(value.get(key, default), prefix + key)
                for key, (check, default) in rules.items()}
    return block


def _variant(value, path, key, variants):
    """A block whose ``key`` names its rules among ``variants``."""
    choose = _choice(*variants)
    name = choose(check_object(value, path).get(key), path + "." + key)
    return _block(dict(variants[name], **{key: (choose, None)}))(value, path)


_positive = _number(" > 0", lambda x: x > 0)
_nonnegative = _number(" >= 0", lambda x: x >= 0)

_SCALE = {  # matern and wendland take exactly one
    "epsilon": (_nullable(_number(" in (0, 1]", lambda x: 0 < x <= 1)), None),
    "fwhm_deg": (_nullable(_positive), None),
}
_KERNEL = {
    "matern": dict(_SCALE, beta=(_number(), None),
                   convention=(_choice("standard", "eq60"), "standard")),
    "wendland": dict(_SCALE, k=(_int(0, "an integer smoothness index"), None),
                     d=(_int(3), 3)),  # phi_{d,k} is positive definite on R^d only
    "sobolev": {"beta": (_number(), None), "tol": (_positive, 1e-8)},
}
_PLANTED = {
    "bumps": (_int(1), 8),
    "amplitude": (_range, [0.5, 2.0]),
    "seed": (_seed, None),  # None: the run seed
}
_SYNTHETIC = {
    "scatter": dict(_PLANTED, samples=(_nullable(_int(1)), None),  # None: 3 per knot
                    psnr_db=(_nullable(_number()), None)),
    "counts": dict(_PLANTED, grid=(_pair(_int(1), "[n_lat, n_lon]"), [12, 24]),
                   rate_scale=(_nonnegative, 1.0), quadrature_order=(_int(2), 8)),
}


def _check_kernel(value, path):
    """A kernel block checked by its family's rules, defaults filled in."""
    kernel = _variant(value, path, "family", _KERNEL)
    if kernel["family"] != "sobolev" and (
            (kernel["epsilon"] is None) == (kernel["fwhm_deg"] is None)):
        raise ValueError("%s needs exactly one of epsilon / fwhm_deg" % path)
    return kernel


_SAMPLING = {  # source -> its rules; `RunConfig` fills in synthetic run defaults
    "scatter_csv": {"scatter_csv": (_text, None)},
    "patch_csv": {"patch_csv": (_text, None), "quadrature_order": (_int(2), 8)},
    "synthetic": {"synthetic": (
        lambda value, path: _variant(value, path, "kind", _SYNTHETIC), None)},
}


def _sampling(value, path):
    """Check: a sampling block naming exactly one source, with its rules."""
    sources = [s for s in _SAMPLING if s in check_object(value, path)]
    if len(sources) != 1:
        raise ValueError("%s must name exactly one source (%s)"
                         % (path, " | ".join(_SAMPLING)))
    return _block(_SAMPLING[sources[0]])(value, path)


# cost.kind -> the data-fit model for a cost block and measurements y
_COST_KINDS = {
    "exact": lambda cost, y: ExactMatch(y),
    "l2ball": lambda cost, y: L2Ball(y, cost["rho_rel"] * np.linalg.norm(y)),
    "l1": lambda cost, y: L1(y),
    "kl": lambda cost, y: KL(y),
    "ls": lambda cost, y: LeastSquares(y),
}
# cost.kind and solver.kind -> the keys each kind takes besides kind
_COST = dict(dict.fromkeys(_COST_KINDS, {}), l2ball={"rho_rel": (_positive, None)})
_SOLVER = {"pds": {}, "apgd": {}, "tikhonov": {"mu": (_positive, None)}}
_KNOTS = {"fibonacci": (_int(1), None)}
_RASTER = {"n_lat": (_int(2), None), "n_lon": (_int(2), None), "path": (_text, None)}
_OUTPUTS = {
    "directory": (_text, "."),
    "coefficients": (_text, "coefficients.csv"),
    "manifest": (_text, "manifest.json"),
    "trace": (_text, "trace.csv"),
    "raster": (_nullable(_block(_RASTER)), None),
}
_RUN = {
    "kernel": (_check_kernel, None),
    "knots": (_block(_KNOTS), None),
    "sampling": (_sampling, None),
    "cost": (lambda value, path: _variant(value, path, "kind", _COST), None),
    "solver": (lambda value, path: _variant(value, path, "kind", _SOLVER), None),
    "lambda": (_nonnegative, 0.0),
    "eps_stop": (_positive, 1e-4),
    "max_iter": (_int(1), 20000),
    "seed": (_seed, None),
    "outputs": (_block(_OUTPUTS), None),
}


class RunConfig(dict):
    """A checked reconstruction run: the JSON document with each key checked
    by its rule in the tables above and every default the run uses filled
    in.  The run reads it by key and the manifest echoes it; checking a
    RunConfig again gives an equal one.
    """

    def __init__(self, spec):
        run = _block(_RUN)(spec, "")
        cost, solver = run["cost"]["kind"], run["solver"]["kind"]
        if solver == "apgd" and cost != "ls":
            raise ValueError("solver.kind apgd needs the smooth ls cost")
        synth = run["sampling"].get("synthetic")
        if solver == "tikhonov":
            if "patch_csv" in run["sampling"] or (synth or {}).get("kind") == "counts":
                raise ValueError("solver.kind tikhonov needs point samples "
                                 "(scatter_csv or scatter synthetic)")
            if cost != "ls":
                raise ValueError("solver.kind tikhonov needs the ls cost")
        if synth is not None:  # the defaults that depend on the run
            if synth["bumps"] > run["knots"]["fibonacci"]:
                raise ValueError("sampling.synthetic.bumps must be <= knots.fibonacci")
            if synth["seed"] is None:
                synth["seed"] = run["seed"]
            if synth.get("samples", 0) is None:
                synth["samples"] = 3 * run["knots"]["fibonacci"]
        super().__init__(run)


def _artifact_names(outputs):
    """The file name of each artifact a run writes, by its key in the checked
    ``outputs`` block: ``coefficients``, ``trace``, ``manifest``, and
    ``raster.path`` when a raster is configured."""
    names = {key: outputs[key] for key in ("coefficients", "trace", "manifest")}
    if outputs["raster"] is not None:
        names["raster.path"] = outputs["raster"]["path"]
    return names


def _keyed(key, fn, *args):
    """``fn(*args)``; a ValueError it raises is raised again naming ``key``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError("%s: %s" % (key, exc)) from None


def build_kernel(spec):
    """ZonalKernel from a checked kernel block (a `RunConfig`'s ``kernel``).

    The constructors own the rules the config tables leave to them: a
    ``beta`` the Matern closed form or the Sobolev series does not admit, and
    a ``fwhm_deg`` no scale reaches, each raise ValueError naming the key.
    """
    if spec["family"] == "sobolev":
        return _keyed("kernel.beta",
                      lambda: sobolev_green_zonal(spec["beta"], tol=spec["tol"]))
    if spec["family"] == "matern":
        factory = lambda eps: matern_zonal(spec["beta"], eps, convention=spec["convention"])
        _keyed("kernel.beta", factory, 1.0)  # the order, before any scale search
    else:
        factory = lambda eps: wendland_zonal(spec["d"], spec["k"], eps)
    if spec["fwhm_deg"] is None:
        return factory(spec["epsilon"])
    eps = _keyed("kernel.fwhm_deg", epsilon_for_fwhm, factory, spec["fwhm_deg"])
    return factory(eps)


def field_kernel(cfg, kernel):
    """The kernel a run's field expands in, given the run's ``kernel``: that
    kernel itself, or its self-convolution for the tikhonov solver, whose
    field is ``sum_l x_l (psi * psi)(<., r_l>)`` over the sample directions."""
    if cfg["solver"]["kind"] == "tikhonov":
        return ZonalKernel.from_series(self_convolve(kernel.series()))
    return kernel


def _timed(stages, name, fn, *args):
    """``fn(*args)``, adding its seconds to ``stages[name]``."""
    started = time.perf_counter()
    result = fn(*args)
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - started
    return result


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB: the VmHWM line
    of /proc/self/status, or ``ru_maxrss`` where there is none (macOS).
    Linux carries ``ru_maxrss`` across exec, so there it would read the
    launcher's peak when that is the larger."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # B / kB


def _load_measurements(sampling, kernel, knots, stages):
    # (functionals, y, G): G is the Gram synthetic counts came from, or None
    if "scatter_csv" in sampling:
        dirs, values = _timed(stages, "load_csv", load_scatter_csv, sampling["scatter_csv"])
        if len(values) == 0:
            raise ValueError("scatter file %r has no rows" % sampling["scatter_csv"])
        return [DiracFunctional(d) for d in dirs], values, None
    if "patch_csv" in sampling:
        bounds, counts = _timed(stages, "load_csv", load_patch_counts_csv,
                                sampling["patch_csv"])
        if len(counts) == 0:
            raise ValueError("patch file %r has no rows" % sampling["patch_csv"])
        Q = sampling["quadrature_order"]
        return [PatchFunctional(b, Q) for b in bounds], counts, None
    return synthetic_measurements(sampling["synthetic"], kernel, knots, stages)


class _Setup:
    """What a run needs before lambda enters, built once per sweep: y, each
    setup stage's seconds, the field's kernel, knots and `spline.RasterGrid`
    (None with no raster), and the solve ``solver.kind`` names, bound to G and
    the cost model or to K: ``solve(point cfg)``, the ``system`` product behind
    ``data_misfit``, the ``residual``'s name and ``gram``, G's record or None.
    A stage's seconds hold the imports its work makes: ``assemble`` holds
    scipy.sparse's load when a sparse G is the run's first sparse work, and
    ``spectral_norm`` a Lanczos norm's first load of scipy.sparse.linalg."""

    def __init__(self, cfg):
        started = time.perf_counter()
        self.stages = {}
        kernel = _timed(self.stages, "build_kernel", build_kernel, cfg["kernel"])
        knots = fibonacci_lattice(cfg["knots"]["fibonacci"])
        functionals, y, G = _load_measurements(cfg["sampling"], kernel, knots, self.stages)
        if cfg["solver"]["kind"] == "tikhonov":  # point samples, as RunConfig checks
            knots = _keyed("sampling: sample directions repeat (solver.kind tikhonov "
                           "centres a kernel on each)",
                           KnotSet, [f.direction for f in functionals])
            kernel = _timed(self.stages, "series", field_kernel, cfg, kernel)
            K = _timed(self.stages, "knot_gram", knot_gram, kernel, knots)
            self.solve = lambda point: tikhonov_solve(K, y, point["solver"]["mu"])
            self.system, self.residual, self.gram = (lambda v: K @ v), "system_relative", None
        else:
            model = _COST_KINDS[cfg["cost"]["kind"]](cfg["cost"], y)
            if G is None:
                G = _timed(self.stages, "assemble", assemble_gram, kernel, functionals, knots)
            _timed(self.stages, "spectral_norm", spectral_norm, G)
            solve = apgd_solve if cfg["solver"]["kind"] == "apgd" else pds_solve
            self.solve = lambda point: solve(G, model, SolverConfig(
                point["lambda"], eps_stop=point["eps_stop"], max_iter=point["max_iter"]))
            self.system, self.residual = G.matvec, "primal_step"
            # the system matrix the solve runs on and the norm its steps come from
            self.gram = {"shape": list(G.shape), "nnz": G.nnz, "density": G.density,
                         "spectral_norm": G.spectral_norm_cache}
        self.y, self.field_kernel, self.field_knots = y, kernel, knots
        raster = cfg["outputs"]["raster"]
        self.raster = None if raster is None else RasterGrid(
            raster["n_lat"], raster["n_lon"], self.field_kernel, self.field_knots)
        self.seconds = time.perf_counter() - started


def _run_point(cfg, setup):
    """Solve at ``cfg["lambda"]`` and write all artifacts; wall time counts
    the setup."""
    started = time.perf_counter()
    stages = dict(setup.stages)
    outputs = cfg["outputs"]
    os.makedirs(outputs["directory"], exist_ok=True)
    result = _timed(stages, "solve", setup.solve, cfg)
    x, trace = result.x, result.objective_trace
    # G's record and the steps (sigma is None for apgd)
    gram = setup.gram and dict(setup.gram, tau=result.tau, sigma=result.sigma)
    residuals = {setup.residual: result.primal_residual,
                 "data_misfit": float(np.linalg.norm(setup.system(x) - setup.y))}
    field = SplineField(setup.field_kernel, setup.field_knots, x)
    table = setup.field_kernel.table  # the manifest's kernel_table, if any

    # by the manifest's names: raster.path is "raster"; absolute names stay
    paths = {key.partition(".")[0]: os.path.join(outputs["directory"], name)
             for key, name in _artifact_names(outputs).items()}
    _timed(stages, "save_coefficients", save_coefficients_csv,
           paths["coefficients"], field)
    write_table(paths["trace"], TRACE_HEADER, [np.arange(1, len(trace) + 1), trace])
    if setup.raster is not None:
        _timed(stages, "export_raster", _write_raster, setup.raster, field.coeffs,
               paths["raster"])

    manifest = {
        "config": cfg,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_objective": float(trace[-1]),
        "gram": gram,
        "kernel_table": None if table is None else {"nodes": table.nodes,
                                                    "error_bound": table.error_bound},
        "raster": None if setup.raster is None else setup.raster.record,
        "residual_norms": residuals,
        "sparsity_count": sparsity_report(field).count,
        "stages": stages,
        "peak_rss_mb": _peak_rss_mb(),
        "wall_time_s": setup.seconds + time.perf_counter() - started,
        "library_version": __version__,
        "rng_seed": cfg["seed"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {"raster": None, **paths},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with open(paths["manifest"], "w") as fh:
        fh.write(text)
    return manifest


def run_reconstruction(config):
    """Execute one reconstruction run and write all artifacts.

    Returns
    -------
    dict
        The manifest, also written as JSON to the configured manifest path.
    """
    cfg = RunConfig(config)
    return _run_point(cfg, _Setup(cfg))


def run_lambda_sweep(config, lambdas):
    """One run per penalty weight, sharing one setup; yields each manifest.

    Point i writes into ``lambda_NN/`` (NN = i) of the output directory the
    files a single run with that ``lambda`` and directory writes.  Each
    weight passes the ``lambda`` rule, as ``lambda[i]``, before any work, and
    an absolute output file name, which every point would overwrite, raises
    ValueError naming its key.
    """
    cfg = RunConfig(config)
    lambdas = [_RUN["lambda"][0](lam, "lambda[%d]" % i) for i, lam in enumerate(lambdas)]
    for key, name in _artifact_names(cfg["outputs"]).items():
        if os.path.isabs(name):
            raise ValueError("outputs.%s must be a relative path in a lambda sweep, "
                             "got %s" % (key, name))
    setup = _Setup(cfg)
    for i, lam in enumerate(lambdas):
        directory = os.path.join(cfg["outputs"]["directory"], "lambda_%02d" % i)
        point = dict(cfg, outputs=dict(cfg["outputs"], directory=directory))
        point["lambda"] = lam
        yield _run_point(point, setup)


def _write_raster(grid, coeffs, path):
    """Write ``lon_deg,lat_deg,value`` rows of the field with ``coeffs`` at
    the cells of a `spline.RasterGrid`; each row and column centre is
    formatted once, and its text repeated over the cells."""
    lon, lat = ([FLOAT_FMT % v for v in c.tolist()] for c in (grid.lon, grid.lat))
    write_table(path, SCATTER_HEADER, [np.tile(lon, len(grid.lat)),
                                       np.repeat(lat, len(grid.lon)), grid.values(coeffs)])


def export_raster(field, n_lat, n_lon, path):
    """Write ``lon_deg,lat_deg,value`` at the cell centres of an equal-angle
    grid (south-to-north rows, west-to-east columns)."""
    _write_raster(RasterGrid(n_lat, n_lon, field.kernel, field.knots), field.coeffs, path)
