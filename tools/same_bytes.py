"""Check that two source trees write the same bytes on the benchmark workloads.

Usage: python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT [--seeds 1 1009]

PARENT_ROOT's ``bench/workloads.py`` generates each workload's inputs once per
seed; each tree's CLI (its ``src/``, one BLAS thread) runs the workload on them.
The sha256 of every CSV written and the manifests' FIELDS must agree: the exit
status is 1 if any differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

FIELDS = ("kernel_table", "raster", "gram", "iterations", "final_objective",
          "converged", "residual_norms", "sparsity_count")


def outputs(root, argv, out_dir):
    """{path under out_dir: a CSV's sha256 or a manifest's FIELDS} of a run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "sphsplines.cli", *argv, "--output-dir", out_dir],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    found = {}
    for directory, _, names in os.walk(out_dir):
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            key = os.path.relpath(os.path.join(directory, name), out_dir)
            if name.endswith(".csv"):
                found[key] = hashlib.sha256(data).hexdigest()
            else:  # the manifest; JSON text, so that NaN equals NaN
                found[key] = json.dumps(list(map(json.loads(data).get, FIELDS)))
    return found


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
                parent, change = (outputs(root, argv, os.path.join(inputs, "out%d" % i))
                                  for i, root in enumerate(args.roots))
                bad = sorted(k for k in parent.keys() | change.keys()
                             if parent.get(k) != change.get(k))
                print("%s seed %d: %d CSVs and %d manifests, %s" % (
                    name, seed, sum(k.endswith(".csv") for k in parent),
                    sum(k.endswith(".json") for k in parent),
                    "differ: " + ", ".join(bad) if bad else "identical"))
                differ |= bool(bad)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
