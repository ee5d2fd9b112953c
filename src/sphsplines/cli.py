"""Command-line entry point.

Subcommands
-----------
reconstruct
    Run a reconstruction described by a JSON run config, with optional
    overrides for the penalty weight, solver, seed and output directory, or a
    geometric sweep over penalty weights.
synth
    Write the seeded synthetic measurements (point samples or binned counts)
    that a config's ``sampling.synthetic`` block describes.
raster
    Evaluate the coefficients a run wrote on an equal-angle grid for
    plotting, in the kernel of that run's config.
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
    RunConfig,
    build_kernel,
    check_object,
    export_raster,
    field_kernel,
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


def _load_config(path):
    """The JSON object of a run-config file, not yet checked; a key repeated
    in any of its objects raises ValueError naming it."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError("%s: repeated config key %r" % (path, key))
            obj[key] = value
        return obj

    with open(path) as fh:
        return check_object(json.load(fh, object_pairs_hook=unique), "")


def _cmd_reconstruct(args):
    spec = _load_config(args.config)
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
        if not (0 < lo <= hi < np.inf and count >= 1 and count.is_integer()):
            raise ValueError("sweep needs 0 < LO <= HI < inf and an integer COUNT >= 1")
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


def _cmd_synth(args):
    cfg = RunConfig(_load_config(args.config))
    synth = cfg["sampling"].get("synthetic")
    if synth is None:
        raise ValueError("%s: synth needs a sampling.synthetic block" % args.config)
    functionals, y, _ = synthetic_measurements(
        synth, build_kernel(cfg["kernel"]), fibonacci_lattice(cfg["knots"]["fibonacci"])
    )
    if synth["kind"] == "scatter":
        lon, lat = lonlat_from_direction(np.array([f.direction for f in functionals]))
        save_scatter_csv(args.output, lon, lat, y)
        print("wrote %d samples to %s" % (y.size, args.output))
    else:
        save_patch_counts_csv(args.output, [f.bounds for f in functionals], y)
        print("wrote %d patch counts (total %d events) to %s"
              % (y.size, int(y.sum()), args.output))
    return 0


def _cmd_raster(args):
    cfg = RunConfig(_load_config(args.config))
    dirs, coeffs = load_coefficients_csv(args.coefficients)
    kernel = field_kernel(cfg, build_kernel(cfg["kernel"]))
    export_raster(SplineField(kernel, dirs, coeffs), args.n_lat, args.n_lon, args.output)
    print("wrote %dx%d raster to %s" % (args.n_lat, args.n_lon, args.output))
    return 0


def _cmd_lattice(args):
    lon, lat = lonlat_from_direction(fibonacci_lattice(args.n).points)
    write_table(args.output or None, ["lon_deg", "lat_deg"], [lon, lat])
    if args.output:
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
    p.add_argument("--solver", help="override solver.kind")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--output-dir", help="override the output directory")
    p.add_argument("--lambda-sweep", nargs=3, type=float,
                   metavar=("LO", "HI", "COUNT"),
                   help="geometric sweep over penalty weights")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("synth", help="write the measurements a config's "
                       "sampling.synthetic block draws")
    p.add_argument("--config", required=True, help="JSON run description")
    p.add_argument("--output", required=True, help="scatter or patch-count CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("raster", help="grid a coefficient file a run wrote")
    p.add_argument("--config", required=True, help="JSON run description of the run "
                   "that wrote the coefficients")
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
