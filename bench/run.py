"""Benchmark driver: time, check and score sphsplines CLI operations.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh ``python -m sphsplines.cli reconstruct`` process
running against the checkout's ``src/`` (nothing is installed), in a closed
loop: the next operation starts when the previous one has exited.  Inputs
are generated from the seed before any timing starts.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREADS = 1  # BLAS threads per launched process (<= nproc)
SETUP_REPEATS = 5  # fresh `--version` launches per run; setup_s is their median
MIN_OPS = 3  # per run (per kind in a traced run), even past --seconds
OP_TIMEOUT_S = 150.0


# ------------------------------------------------------------- environment


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(THREADS)
    return env


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
    }


# --------------------------------------------------------------- launching


class Op:
    """One finished CLI process: wall time, exit status, own peak RSS."""

    def __init__(self, wall_s, status, peak_rss_mb, stderr):
        self.wall_s = wall_s
        self.status = status
        self.peak_rss_mb = peak_rss_mb
        self.stderr = stderr
        self.problems = []
        self.traced = False
        self.trace_path = None
        self.bytes_written = 0


def launch(argv, log_dir):
    """Run argv to completion; rusage comes from os.wait4 on its own pid."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return Op(wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


def cli_argv(inst, trace_path=None):
    if trace_path is None:
        return [sys.executable, "-m", "sphsplines.cli"] + inst.argv
    return [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace_path] + inst.argv


def measure_setup(log_dir):
    argv = [sys.executable, "-m", "sphsplines.cli", "--version"]
    launch(argv, log_dir)  # untimed: compiles bytecode in a fresh checkout
    walls = []
    for _ in range(SETUP_REPEATS):
        op = launch(argv, log_dir)
        if op.status != 0:
            raise RuntimeError("`sphsplines.cli --version` exited %d" % op.status)
        walls.append(op.wall_s)
    return statistics.median(walls)


# ----------------------------------------------------------------- checks


def check_outputs(inst, op, state):
    """Append every failed check to op.problems; score the first good answer."""
    if op.status != 0:
        op.problems.append("exit status %d" % op.status)
    if any(line.startswith("error [") for line in op.stderr.splitlines()):
        op.problems.append("error line on stderr")
    digest = hashlib.sha256()
    for run_dir in inst.run_dirs:
        manifest = os.path.join(run_dir, "manifest.json")
        coeffs = os.path.join(run_dir, "coefficients.csv")
        if not os.path.isfile(manifest):
            op.problems.append("missing %s" % os.path.relpath(manifest, ROOT))
        if not os.path.isfile(coeffs):
            op.problems.append("missing %s" % os.path.relpath(coeffs, ROOT))
            continue
        with open(coeffs, "rb") as fh:
            data = fh.read()
        digest.update(data)
        values = np.loadtxt(coeffs, delimiter=",", skiprows=1, ndmin=2)[:, 3]
        if not np.all(np.isfinite(values)):
            op.problems.append("non-finite coefficients in %s" % run_dir)
        if inst.raster is not None:
            raster = os.path.join(run_dir, "raster.csv")
            rows = -1
            if os.path.isfile(raster):
                with open(raster, "rb") as fh:
                    rows = sum(1 for _ in fh) - 1
            want = inst.raster[0] * inst.raster[1]
            if rows != want:
                op.problems.append("raster has %d rows, want %d" % (rows, want))
    if op.problems:
        return
    if state.get("digest") is None:
        state["digest"] = digest.hexdigest()
        state["accuracy"], state["score_problems"] = inst.score()
    elif digest.hexdigest() != state["digest"]:
        op.problems.append("coefficients differ from the first run")
    op.problems.extend(state["score_problems"])


def output_bytes(inst):
    total = 0
    for dirpath, _, files in os.walk(inst.out_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# ---------------------------------------------------------------- running


def run_ops(inst, seconds, traced_flags):
    """Closed loop over operations, cycling through traced_flags, until the
    next operation would end past ``seconds`` (and each kind ran MIN_OPS)."""
    state, ops = {}, []
    start = time.perf_counter()
    while True:
        flag = traced_flags[len(ops) % len(traced_flags)]
        done = sum(1 for o in ops if o.traced == flag)
        if done >= MIN_OPS:
            typical = statistics.median(o.wall_s for o in ops)
            if time.perf_counter() - start + typical > seconds:
                break
        shutil.rmtree(inst.out_dir, ignore_errors=True)
        log_dir = os.path.join(os.path.dirname(inst.out_dir), "log")
        trace_path = None
        if flag:
            trace_path = os.path.join(os.path.dirname(inst.out_dir),
                                      "trace_%02d.json" % len(ops))
        op = launch(cli_argv(inst, trace_path), log_dir)
        op.traced, op.trace_path = flag, trace_path
        check_outputs(inst, op, state)
        op.bytes_written = output_bytes(inst)
        ops.append(op)
    return ops, state


def quantile_note(walls):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(walls)
    note = "median of %d" % n
    if n >= 20:
        p = 100 * (n - 10) // n
        q = statistics.quantiles(walls, n=100)[p - 1]
        note += ", p%d %.4f s" % (p, q)
    return note


def layer_metrics(traced, untraced, accuracy):
    """Per-layer metrics: median over the traced operations, plus the
    tracing overhead (traced minus untraced median wall time)."""
    import layers

    per_op = [layers.metrics(op.trace_path) for op in traced]
    out = {}
    for name, (unit, fn) in layers.PER_LAYER.items():
        value = statistics.median(m[name] for m in per_op) if fn else None
        out[name] = {"value": value, "unit": unit}
    wall_t = statistics.median(op.wall_s for op in traced)
    wall_u = statistics.median(op.wall_s for op in untraced)
    filled = {
        "pipeline.bytes_written": statistics.median(op.bytes_written for op in traced),
        "solvers.objective_gap_rel": accuracy.get("objective_gap_rel", float("nan")),
        "solvers.residual_rel": accuracy.get("residual_rel", float("nan")),
        "solvers.active_knots": accuracy.get("active_knots", -1),
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
    }
    for name, value in filled.items():
        out[name]["value"] = value
    return out


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    base = os.path.join(WORK, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    inst = workloads.WORKLOADS[args.workload](args.seed, base)
    setup_s = measure_setup(os.path.join(base, "setup"))
    flags = (False, True) if args.trace else (False,)
    ops, state = run_ops(inst, args.seconds, flags)
    failed = [op for op in ops if op.problems]
    untraced = [op for op in ops if not op.traced]
    accuracy = state.get("accuracy", {})

    walls = [op.wall_s for op in untraced]
    rows = [
        ("wall_s", statistics.median(walls), "s", quantile_note(walls)),
        ("setup_s", setup_s, "s", "median of %d" % SETUP_REPEATS),
        ("peak_rss_mb", statistics.median(op.peak_rss_mb for op in untraced), "MB", ""),
        ("objective_gap_rel", accuracy.get("objective_gap_rel", float("nan")), "1",
         "certified"),
        ("residual_rel", accuracy.get("residual_rel", float("nan")), "1",
         "||Gx - y|| / ||y||"),
        ("failed_frac", len(failed) / len(ops), "1",
         "%d of %d" % (len(failed), len(ops))),
    ]
    print("workload %s  seed %d  env %s" % (args.workload, args.seed, json.dumps(env)))
    for name, value, unit, note in rows:
        print("  %-18s %14.6g %-3s %s" % (name, value, unit, note))
    bound = accuracy.get("active_bound")
    if bound is not None and accuracy["active_knots"] > bound:
        # capped runs are not failures; the representer bound shows here
        print("  note: %d active knots > L = %d (solver stopped before a vertex)"
              % (accuracy["active_knots"], bound))
    for op in failed:
        print("  FAILED op: %s" % "; ".join(op.problems), file=sys.stderr)

    if args.trace:
        traced = [op for op in ops if op.traced]
        metrics = layer_metrics(traced, untraced, accuracy)
        for name, m in metrics.items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows[:3]}

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(base, "result.json"), "w") as fh:
        json.dump(dict(result, env=env, walls=[op.wall_s for op in ops],
                       accuracy=accuracy), fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "sphsplines", "cli.py")):
        print("bench/run.py: no sphsplines source under %s; run it from the "
              "root of a source checkout" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [BENCH, SRC]
    sys.exit(main())
