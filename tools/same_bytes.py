"""Check that two source trees write the same bytes on the benchmark workloads.

Usage: python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT [--seeds 1 1009]

PARENT_ROOT's ``bench/workloads.py`` generates each workload's inputs once per
seed; each tree's CLI (its ``src/``, one BLAS thread) runs the workload on them.
The sha256 of every CSV written and the manifests' FIELDS must agree: the exit
status is 1 if any differ.  Each CSV that differs is listed with the size of
its change: the largest absolute change of its last column, divided by the
parent's largest finite magnitude there; each manifest that differs, with the
FIELDS that differ.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

FIELDS = ("kernel_table", "raster", "gram", "iterations", "final_objective",
          "converged", "residual_norms", "sparsity_count")


def run(root, argv, out_dir):
    """Run the CLI of the tree at ``root`` with ``argv``, writing into out_dir."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "sphsplines.cli", *argv, "--output-dir", out_dir],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def outputs(out_dir):
    """{path under out_dir: a CSV's sha256 or {field: value} of a
    manifest's FIELDS}."""
    found = {}
    for directory, _, names in os.walk(out_dir):
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            key = os.path.relpath(os.path.join(directory, name), out_dir)
            if name.endswith(".csv"):
                found[key] = hashlib.sha256(data).hexdigest()
            else:  # the manifest; values as JSON text, so that NaN equals NaN
                manifest = json.loads(data)
                found[key] = {field: json.dumps(manifest.get(field)) for field in FIELDS}
    return found


def last_column(path):
    """The last column of a CSV with one header row, as floats."""
    with open(path, newline="") as fh:
        return [float(row[-1]) for row in list(csv.reader(fh))[1:]]


def change_size(parent_csv, change_csv):
    """How far a CSV's last column moved, as text: the largest absolute
    change over the parent's largest finite magnitude (equal non-finite
    entries do not count), or the two row counts if they differ."""
    old, new = last_column(parent_csv), last_column(change_csv)
    if len(old) != len(new):
        return "%d -> %d rows" % (len(old), len(new))
    moved = max((0.0 if a == b else abs(a - b) for a, b in zip(old, new)), default=0.0)
    scale = max((abs(a) for a in old if math.isfinite(a)), default=0.0)
    return "%.2g of the largest" % (moved / scale if scale else math.inf)


def compare(parent_dir, change_dir):
    """The paths under the two output directories whose outputs differ,
    sorted, each CSV with its `change_size` and each manifest with the
    FIELDS that differ, by name."""
    parent, change = outputs(parent_dir), outputs(change_dir)
    bad = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    listed = []
    for k in bad:
        if k not in parent or k not in change:
            listed.append(k)
        elif k.endswith(".csv"):
            listed.append("%s (%s)" % (k, change_size(os.path.join(parent_dir, k),
                                                      os.path.join(change_dir, k))))
        else:
            listed.append("%s (%s)" % (k, ", ".join(
                f for f in sorted(FIELDS) if parent[k][f] != change[k][f])))
    return listed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 1009])
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(args.roots[0], d) for d in ("bench", "src")]
    import workloads

    differ = False
    with tempfile.TemporaryDirectory() as work:
        for name, generate in workloads.WORKLOADS.items():
            for seed in args.seeds:
                inputs = os.path.join(work, "%s-%d" % (name, seed))
                os.makedirs(inputs)
                argv = generate(seed, inputs).argv
                out = [os.path.join(inputs, "out%d" % i) for i in range(2)]
                for root, out_dir in zip(args.roots, out):
                    run(root, argv, out_dir)
                bad, written = compare(*out), outputs(out[0])
                print("%s seed %d: %d CSVs and %d manifests, %s" % (
                    name, seed, sum(k.endswith(".csv") for k in written),
                    sum(k.endswith(".json") for k in written),
                    "differ: " + ", ".join(bad) if bad else "identical"))
                differ |= bool(bad)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
