#!/bin/sh
# End-to-end command-line walkthrough: draw synthetic scattered samples from a
# run configuration, reconstruct from them, sweep the regularisation weight,
# and rasterise the recovered field, all in a fresh temporary directory.
# Needs `sphsplines` on PATH, as after `pip install -e . --no-build-isolation`
# in the repository root.
set -e

workdir=$(mktemp -d)
echo "working in $workdir"
cd "$workdir"

sphsplines lattice --n 8

# one run description: the kernel, knots, measurements, cost and solver
cat > synth.json <<'JSON'
{
  "kernel": {"family": "matern", "beta": 2.5, "epsilon": 0.35,
             "convention": "eq60"},
  "knots": {"fibonacci": 64},
  "sampling": {"synthetic": {"kind": "scatter", "bumps": 4, "samples": 192}},
  "cost": {"kind": "exact"},
  "lambda": 1e-4,
  "solver": {"kind": "pds"},
  "eps_stop": 1e-8,
  "max_iter": 120000,
  "seed": 3,
  "outputs": {"directory": "run"}
}
JSON
sphsplines synth --config synth.json --output scatter.csv
head -3 scatter.csv

# the same run, reading the samples from the file instead of drawing them
python3 -c "import json; c = json.load(open('synth.json'));\
c['sampling'] = {'scatter_csv': 'scatter.csv'};\
json.dump(c, open('run.json', 'w'), indent=2)"
sphsplines reconstruct --config run.json

sphsplines reconstruct --config run.json --lambda-sweep 1e-5 1e-2 3 \
    --output-dir sweep

sphsplines raster --config run.json --coefficients run/coefficients.csv \
    --n-lat 18 --n-lon 36 --output run/field.csv
wc -l run/field.csv

echo "manifest summary:"
python3 -c "import json,sys; m=json.load(open(sys.argv[1]));\
print(' iterations', m['iterations'], 'converged', m['converged']);\
print(' objective ', m['final_objective']);\
print(' active    ', m['sparsity_count'])" run/manifest.json
