"""Run the sphsplines CLI with every layer's functions wrapped in spans.

Usage: python bench/traced_cli.py TRACE_JSON <cli arguments...>

The wrappers are installed from outside the package: each public function
and each public method (plus ``__call__``) of the layer modules is replaced,
and every ``sphsplines`` module that imported a function by name is
rebound to the wrapper, so ``pipeline.assemble_gram`` and
``solvers.prox_conjugate`` are traced like the originals.

Every call adds to its name's count, total time and self time (total minus
time in traced children).  The first ``SPAN_LIMIT`` calls of a name also
keep a span (id, name, start, end, parent id); beyond that a name is
per-iteration or per-row work and is only aggregated.  Spans stay in memory
and are written to TRACE_JSON when the CLI returns.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("sphere", "legendre", "pdo", "kernels", "gram", "prox", "solvers",
          "spline", "pipeline", "cli")
SPAN_LIMIT = 20


def _nbytes_matvec(gram):
    # CSR arrays read once plus the input and output vectors (float64)
    m = gram.matrix
    return (m.nnz * (m.data.itemsize + m.indices.itemsize)
            + m.indptr.size * m.indptr.itemsize
            + (m.shape[0] + m.shape[1]) * 8)


# name -> fn(args, kwargs, result, pre) returning {counter: increment};
# names in PRE get pre = PRE[name](args, kwargs) before the call
PRE = {
    "gram.spectral_norm": lambda a, k: getattr(a[0], "spectral_norm_cache", None)
    is not None,
}
COUNTERS = {
    "gram.assemble_gram": lambda a, k, r, pre: {
        "gram.rows": r.shape[0], "gram.nnz": r.nnz,
        "gram.cells": r.shape[0] * r.shape[1]},
    "gram.spectral_norm": lambda a, k, r, pre: {
        "gram.spectral_norm_cache_hits": int(pre)},
    "gram.GramMatrix.matvec": lambda a, k, r, pre: {
        "gram.matvec_bytes_computed": _nbytes_matvec(a[0])},
    "gram.GramMatrix.rmatvec": lambda a, k, r, pre: {
        "gram.matvec_bytes_computed": _nbytes_matvec(a[0])},
    "kernels.ZonalKernel.__call__": lambda a, k, r, pre: {
        "kernels.eval_points": int(getattr(a[1], "size", 1))},
    "legendre.resynthesize": lambda a, k, r, pre: {
        "legendre.max_temp_bytes": ("max", (a[0].n_max + 1)
                                    * int(getattr(a[1], "size", 1)) * 8)},
    "spline.evaluate": lambda a, k, r, pre: {
        "spline.evaluate_points": int(getattr(r, "size", 1))},
    "solvers.pds_solve": lambda a, k, r, pre: {
        "solvers.iterations": r.iterations, "solvers.capped": int(not r.converged)},
    "solvers.apgd_solve": lambda a, k, r, pre: {
        "solvers.iterations": r.iterations, "solvers.capped": int(not r.converged)},
    "solvers.tikhonov_solve": lambda a, k, r, pre: {
        "solvers.iterations": r[1] if isinstance(r, tuple) else 0},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = {}  # name -> [count, total_s, self_s]
        self.counters = {}
        self._stack = []  # [span_id, child_time]
        self._next_id = 0

    def wrap(self, name, fn):
        pre_hook, counter = PRE.get(name), COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook else None
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats = self.calls.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stats[0] <= SPAN_LIMIT:
                    self.spans.append((frame[0], name, start, end,
                                       parent[0] if parent else None))
            if counter is not None:
                for key, inc in counter(args, kwargs, result, pre).items():
                    if isinstance(inc, tuple):  # ("max", value)
                        self.counters[key] = max(self.counters.get(key, 0), inc[1])
                    else:
                        self.counters[key] = self.counters.get(key, 0) + inc
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module("sphsplines." + layer)
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and attr != "main":
                    replaced[id(obj)] = self.wrap("%s.%s" % (layer, attr), obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                            meth == "__call__" or not meth.startswith("_")
                        ):
                            setattr(obj, meth, self.wrap(
                                "%s.%s.%s" % (layer, obj.__name__, meth), fn))
        # rebind every by-name import, including the package namespace
        for mod in list(modules.values()) + [importlib.import_module("sphsplines")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return modules["cli"]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"calls": self.calls, "counters": self.counters,
                       "spans": self.spans}, fh)


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
