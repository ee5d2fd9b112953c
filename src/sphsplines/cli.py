"""Command-line entry point.

Subcommands
-----------
reconstruct
    Run a reconstruction described by a JSON config, with optional overrides
    for the penalty weight, solver, seed and output directory, or a geometric
    sweep over penalty weights.
synth-scatter / synth-counts
    Generate seeded synthetic data files (point samples, binned counts).
raster
    Evaluate saved coefficients on an equal-angle grid for plotting.
lattice
    Dump the knot lattice as lon/lat rows.

All CSVs are comma-separated UTF-8 with ``.`` decimals and LF line endings.
Exit status is 0 when the run completed (a manifest was written; either the
stop test fired or the iteration cap was hit, with residuals reported), and
nonzero on any error.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .pipeline import (
    build_kernel,
    check_kernel,
    check_object,
    check_synthetic,
    export_raster,
    load_coefficients_csv,
    run_lambda_sweep,
    run_reconstruction,
    save_patch_counts_csv,
    save_scatter_csv,
    synthetic_measurements,
    write_table,
)
from .sphere import fibonacci_lattice, lonlat_from_direction
from .spline import SplineField


# the kernel config keys the kernel flags set (each flag's dest)
_KERNEL_KEYS = ("beta", "d", "k", "epsilon", "fwhm_deg", "convention")


def _add_kernel_args(p):
    p.add_argument("--family", default="matern",
                   choices=["matern", "wendland", "sobolev"])
    p.add_argument("--beta", type=float, help="smoothness order (matern/sobolev)")
    p.add_argument("--dim", dest="d", type=int, help="wendland dimension d")
    p.add_argument("--order", dest="k", type=int, help="wendland smoothness index k")
    p.add_argument("--epsilon", type=float, help="kernel scale")
    p.add_argument("--fwhm-deg", type=float,
                   help="target full width at half maximum, degrees")
    p.add_argument("--convention", choices=["standard", "eq60"],
                   help="matern scale convention")


def _add_synth_args(p, func):
    _add_kernel_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--knots", type=int, default=500, help="lattice pool size")
    p.add_argument("--bumps", type=int, default=8)
    p.add_argument("--amp-lo", type=float, default=0.5)
    p.add_argument("--amp-hi", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=func)


def _kernel(args):
    """The kernel of the flags that were given, checked as a run config's
    ``kernel`` block is (flags left out take its defaults)."""
    spec = {key: getattr(args, key) for key in _KERNEL_KEYS
            if getattr(args, key) is not None}
    return build_kernel(check_kernel(dict(spec, family=args.family)))


def _cmd_reconstruct(args):
    with open(args.config) as fh:
        spec = check_object(json.load(fh), "")
    if args.lam is not None:
        spec["lambda"] = args.lam
    if args.solver is not None:
        spec["solver"] = dict(check_object(spec.get("solver"), "solver"), kind=args.solver)
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.output_dir is not None:
        spec["outputs"] = dict(check_object(spec.get("outputs"), "outputs"),
                               directory=args.output_dir)

    if args.lambda_sweep is not None:
        lo, hi, count = args.lambda_sweep
        if not (0 < lo <= hi and count >= 1 and count.is_integer()):
            raise ValueError("sweep needs 0 < LO <= HI and an integer COUNT >= 1")
        lambdas = np.geomspace(lo, hi, int(count))
        for lam, manifest in zip(lambdas, run_lambda_sweep(spec, lambdas)):
            print(
                "lambda=%.6g  objective=%.9g  nnz=%d  iterations=%d  converged=%s"
                % (lam, manifest["final_objective"], manifest["sparsity_count"],
                   manifest["iterations"], manifest["converged"])
            )
        return 0

    manifest = run_reconstruction(spec)
    print("manifest: %s" % manifest["outputs"]["manifest"])
    print(
        "iterations=%d  converged=%s  objective=%.9g  nnz=%d"
        % (manifest["iterations"], manifest["converged"],
           manifest["final_objective"], manifest["sparsity_count"])
    )
    if not manifest["converged"]:
        print(
            "warning: iteration cap reached; residual norms: %s"
            % json.dumps(manifest["residual_norms"]),
            file=sys.stderr,
        )
    return 0


def _synthetic(args, **synth):
    """Measurements drawn as a run's ``sampling.synthetic`` block would."""
    kernel = _kernel(args)
    synth.update(bumps=args.bumps, amplitude=[args.amp_lo, args.amp_hi],
                 seed=args.seed)
    functionals, y, _ = synthetic_measurements(
        check_synthetic(synth), kernel, fibonacci_lattice(args.knots)
    )
    return functionals, y


def _cmd_synth_scatter(args):
    functionals, values = _synthetic(
        args, kind="scatter", samples=args.samples, psnr_db=args.psnr_db
    )
    lon, lat = lonlat_from_direction(np.array([f.direction for f in functionals]))
    save_scatter_csv(args.output, lon, lat, values)
    print("wrote %d samples to %s" % (values.size, args.output))
    return 0


def _cmd_synth_counts(args):
    # patches use the quadrature rule of config runs (no flag sets it)
    functionals, counts = _synthetic(
        args, kind="counts", grid=args.grid, rate_scale=args.rate_scale
    )
    save_patch_counts_csv(args.output, [f.bounds for f in functionals], counts)
    print("wrote %d patch counts (total %d events) to %s"
          % (counts.size, int(counts.sum()), args.output))
    return 0


def _cmd_raster(args):
    dirs, coeffs = load_coefficients_csv(args.coefficients)
    kernel = _kernel(args)
    field = SplineField(kernel, dirs, coeffs)
    export_raster(field, args.n_lat, args.n_lon, args.output)
    print("wrote %dx%d raster to %s" % (args.n_lat, args.n_lon, args.output))
    return 0


def _cmd_lattice(args):
    lon, lat = lonlat_from_direction(fibonacci_lattice(args.n).points)
    if not args.output:
        write_table(sys.stdout, ["lon_deg", "lat_deg"], [lon, lat])
        return 0
    with open(args.output, "w", newline="") as fh:
        write_table(fh, ["lon_deg", "lat_deg"], [lon, lat])
    print("wrote %d lattice points to %s" % (args.n, args.output))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphsplines",
        description="Sparse spherical-spline reconstruction from point or "
                    "patch measurements.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="run a reconstruction from a JSON config")
    p.add_argument("--config", required=True, help="JSON run description")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="override the penalty weight")
    p.add_argument("--solver", choices=["pds", "apgd", "tikhonov"],
                   help="override the solver")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--output-dir", help="override the output directory")
    p.add_argument("--lambda-sweep", nargs=3, type=float,
                   metavar=("LO", "HI", "COUNT"),
                   help="geometric sweep over penalty weights")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("synth-scatter", help="generate noisy point samples")
    _add_synth_args(p, _cmd_synth_scatter)
    p.add_argument("--samples", type=int, default=1500)
    p.add_argument("--psnr-db", type=float, help="peak SNR of added noise; "
                   "omit for noiseless samples")

    p = sub.add_parser("synth-counts", help="generate Poisson patch counts")
    _add_synth_args(p, _cmd_synth_counts)
    p.add_argument("--grid", nargs=2, type=int, default=[12, 24],
                   metavar=("N_LAT", "N_LON"))
    p.add_argument("--rate-scale", type=float, default=50.0,
                   help="multiplier applied to patch integrals before drawing")

    p = sub.add_parser("raster", help="grid a saved coefficient file")
    _add_kernel_args(p)
    p.add_argument("--coefficients", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--n-lat", type=int, default=180)
    p.add_argument("--n-lon", type=int, default=360)
    p.set_defaults(func=_cmd_raster)

    p = sub.add_parser("lattice", help="dump Fibonacci lattice points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_lattice)

    return parser


def _provenance(exc):
    tb = exc.__traceback__
    module = None
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name == "__main__":
            name = "sphsplines.cli"
        if name.startswith("sphsplines"):
            module = name
        tb = tb.tb_next
    return module or type(exc).__module__


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(
            "error [%s] %s: %s" % (_provenance(exc), type(exc).__name__, exc),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
