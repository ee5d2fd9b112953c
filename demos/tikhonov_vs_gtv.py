"""Why the l1 penalty: quadratic smoothing fills in, gTV selects.

Reconstructs the same noisy point samples twice — once with the quadratic
kernel-norm penalty (a dense representer expansion on the sample locations,
solved by Cholesky) and once with the l1-regularised programme.
The quadratic solution touches every basis function; the l1 solution keeps a
handful, close to the planted support.
"""

import numpy as np

from sphsplines.gram import DiracFunctional, assemble_gram, knot_gram
from sphsplines.kernels import matern_zonal, self_convolve
from sphsplines.pipeline import add_gaussian_noise, plant_spline, random_directions
from sphsplines.prox import L2Ball
from sphsplines.solvers import SolverConfig, pds_solve, tikhonov_solve
from sphsplines.sphere import KnotSet, fibonacci_lattice
from sphsplines.spline import evaluate


def active(x):
    return int(np.sum(np.abs(x) > 1e-4 * np.abs(x).max()))


def main():
    kernel = matern_zonal(2.5, 0.35, convention="eq60")
    knots = fibonacci_lattice(80)
    truth = plant_spline(kernel, knots, 5, (0.5, 2.0), seed=7)
    dirs = random_directions(240, seed=8)
    y = evaluate(truth, dirs)
    y_noisy = add_gaussian_noise(y, psnr_db=10.0, seed=9)
    noise = float(np.linalg.norm(y_noisy - y))
    print("%d samples of a %d-bump spline, noise norm %.3f (PSNR 10 dB)"
          % (len(dirs), active(truth.coeffs), noise))

    K = knot_gram(self_convolve(kernel.series()), KnotSet(dirs))
    x_tik = tikhonov_solve(K, y_noisy, mu=1e-3).x
    print("quadratic penalty: %d of %d coefficients active"
          % (active(x_tik), len(x_tik)))

    G = assemble_gram(kernel, [DiracFunctional(d) for d in dirs], knots)
    res = pds_solve(G, L2Ball(y_noisy, 1.05 * noise),
                    SolverConfig(lam=0.01, eps_stop=1e-6, max_iter=60000))
    print("l1 penalty:        %d of %d coefficients active (planted %d)"
          % (active(res.x), len(res.x), active(truth.coeffs)))


if __name__ == "__main__":
    main()
