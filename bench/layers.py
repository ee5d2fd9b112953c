"""Per-layer metrics computed from one traced CLI operation.

``calls`` maps a traced name (``layer.function`` or ``layer.Class.method``)
to ``[count, total_s, self_s]``; self time excludes traced children, so the
self times of all names add up to the traced part of the process.
``counters`` holds the work counts the tracer derived from arguments and
results.  README.md maps each metric to the end-to-end metric and the
workload it is expected to move.
"""

import json


def _count(calls, *names):
    return sum(calls.get(n, (0, 0.0, 0.0))[0] for n in names)


def _total(calls, *names):
    return sum(calls.get(n, (0, 0.0, 0.0))[1] for n in names)


def _self(calls, *names):
    return sum(calls.get(n, (0, 0.0, 0.0))[2] for n in names)


def _layer_self(calls, layer):
    return sum(v[2] for k, v in calls.items() if k.split(".")[0] == layer)


def _matching(calls, layer, *methods):
    return [k for k in calls
            if k.startswith(layer + ".") and k.rsplit(".", 1)[1] in methods]


MATVEC = ("gram.GramMatrix.matvec", "gram.GramMatrix.rmatvec")
ASSEMBLY = ("gram.assemble_gram", "gram.dirac_row", "gram.patch_row",
            "gram._support_chord_radius")
SOLVES = ("solvers.pds_solve", "solvers.apgd_solve", "solvers.tikhonov_solve")
KERNEL_EVAL = ("kernels.ZonalKernel.__call__", "kernels.matern_halfinteger",
               "kernels.WendlandPolynomial.__call__")


def _per_iter_us(calls, counters):
    iterations = counters.get("solvers.iterations", 0)
    return 1e6 * _total(calls, *SOLVES) / iterations if iterations else 0.0


def _density(counters):
    cells = counters.get("gram.cells", 0)
    return counters.get("gram.nnz", 0) / cells if cells else 0.0


# name -> (unit, fn(calls, counters)); values filled in by run.py are None
PER_LAYER = {
    "gram.assemble_s": ("s", lambda c, k: _self(c, *ASSEMBLY)),
    "gram.assemble_calls": ("count", lambda c, k: _count(c, "gram.assemble_gram")),
    "gram.rows": ("count", lambda c, k: k.get("gram.rows", 0)),
    "gram.nnz": ("count", lambda c, k: k.get("gram.nnz", 0)),
    "gram.density": ("1", lambda c, k: _density(k)),
    "gram.spectral_norm_s": ("s", lambda c, k: _total(c, "gram.spectral_norm")),
    "gram.spectral_norm_calls": ("count", lambda c, k: _count(c, "gram.spectral_norm")),
    "gram.spectral_norm_cache_hits": (
        "count", lambda c, k: k.get("gram.spectral_norm_cache_hits", 0)),
    "gram.matvec_calls": ("count", lambda c, k: _count(c, *MATVEC)),
    "gram.matvec_s": ("s", lambda c, k: _total(c, *MATVEC)),
    "gram.matvec_bytes_computed": (
        "B", lambda c, k: k.get("gram.matvec_bytes_computed", 0)),
    "gram.knot_gram_s": ("s", lambda c, k: _total(c, "gram.knot_gram")),
    "gram.self_s": ("s", lambda c, k: _layer_self(c, "gram")),
    "prox.prox_s": ("s", lambda c, k: _self(c, "prox.prox_conjugate", "prox.prox_cost")),
    "prox.prox_calls": ("count", lambda c, k: _count(c, "prox.prox_cost")),
    # finite_value may call value: self times add up without double counting
    "prox.cost_value_s": (
        "s", lambda c, k: _self(c, *_matching(c, "prox", "value", "finite_value"))),
    "prox.cost_value_calls": (
        "count", lambda c, k: _count(c, *_matching(c, "prox", "finite_value"))),
    "prox.soft_threshold_s": ("s", lambda c, k: _total(c, "prox.soft_threshold")),
    "prox.self_s": ("s", lambda c, k: _layer_self(c, "prox")),
    "solvers.solve_self_s": ("s", lambda c, k: _layer_self(c, "solvers")),
    "solvers.iterations": ("count", lambda c, k: k.get("solvers.iterations", 0)),
    "solvers.per_iter_us": ("us", _per_iter_us),
    "solvers.capped": ("count", lambda c, k: k.get("solvers.capped", 0)),
    "solvers.objective_gap_rel": ("1", None),
    "solvers.residual_rel": ("1", None),
    "solvers.active_knots": ("count", None),
    "legendre.fourier_legendre_s": (
        "s", lambda c, k: _total(c, "legendre.fourier_legendre")),
    "legendre.resynthesize_s": ("s", lambda c, k: _total(c, "legendre.resynthesize")),
    "legendre.resynthesize_calls": (
        "count", lambda c, k: _count(c, "legendre.resynthesize")),
    "legendre.max_temp_bytes": ("B", lambda c, k: k.get("legendre.max_temp_bytes", 0)),
    "legendre.self_s": ("s", lambda c, k: _layer_self(c, "legendre")),
    "kernels.series_s": ("s", lambda c, k: _total(c, "kernels.ZonalKernel.series")),
    "kernels.eval_s": ("s", lambda c, k: _self(c, *KERNEL_EVAL)),
    "kernels.eval_points": ("count", lambda c, k: k.get("kernels.eval_points", 0)),
    "kernels.self_s": ("s", lambda c, k: _layer_self(c, "kernels")),
    "spline.evaluate_s": ("s", lambda c, k: _total(c, "spline.evaluate")),
    "spline.evaluate_points": ("count", lambda c, k: k.get("spline.evaluate_points", 0)),
    "spline.self_s": ("s", lambda c, k: _layer_self(c, "spline")),
    "pipeline.build_kernel_s": ("s", lambda c, k: _total(c, "pipeline.build_kernel")),
    "pipeline.load_csv_s": (
        "s", lambda c, k: _total(c, "pipeline.load_scatter_csv",
                                 "pipeline.load_patch_counts_csv")),
    "pipeline.save_coefficients_s": (
        "s", lambda c, k: _total(c, "pipeline.save_coefficients_csv")),
    "pipeline.export_raster_self_s": ("s", lambda c, k: _self(c, "pipeline.export_raster")),
    "pipeline.run_self_s": ("s", lambda c, k: _self(c, "pipeline.run_reconstruction")),
    "pipeline.self_s": ("s", lambda c, k: _layer_self(c, "pipeline")),
    "pipeline.bytes_written": ("B", None),
    "sphere.s": ("s", lambda c, k: _layer_self(c, "sphere")),
    "pdo.s": ("s", lambda c, k: _layer_self(c, "pdo")),
    "cli.self_s": ("s", lambda c, k: _layer_self(c, "cli")),
    "trace.wall_s": ("s", None),
    "trace.untraced_wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def metrics(trace_path):
    """Every per-layer metric of one traced operation (None where run.py fills in)."""
    with open(trace_path) as fh:
        trace = json.load(fh)
    calls, counters = trace["calls"], trace["counters"]
    return {name: (fn(calls, counters) if fn else None)
            for name, (_, fn) in PER_LAYER.items()}
