"""Acceptance suite: one test per release criterion, one printed line each.

Each test prints ``criterion NN: PASS/FAIL -- detail`` before asserting, so a
``pytest tests/test_acceptance.py -s`` run shows the full scorecard.  The
criteria are asserted at their stated tolerances; nothing is loosened.  The
Fourier-Legendre roundtrip (criterion 04) asserts its 1e-6 sup-error at
degree 4096: at degree 512 the kernels' own coefficient tails (about 3.8e-5
and 5.5e-5) exceed 1e-6 for any transform, so there the test asserts instead
that the roundtrip differs from the kernel by its truncation tail alone.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import matern_bessel

from sphsplines.gram import (
    DiracFunctional,
    GramMatrix,
    PatchFunctional,
    assemble_gram,
    knot_gram,
    spectral_norm,
)
from sphsplines.kernels import (
    lipschitz_estimate,
    matern_halfinteger,
    matern_zonal,
    self_convolve,
    wendland_construct,
    wendland_zonal,
)
from sphsplines.legendre import LegendreSeries, resynthesize
from sphsplines.pipeline import (
    add_gaussian_noise,
    load_coefficients_csv,
    plant_spline,
    poisson_counts,
    random_directions,
    run_reconstruction,
)
from sphsplines.prox import (
    KL,
    L1,
    ExactMatch,
    L2Ball,
    LeastSquares,
    prox_conjugate,
    prox_cost,
)
from sphsplines.solvers import (
    SolverConfig,
    apgd_solve,
    pds_solve,
    rkhs_project,
    tikhonov_solve,
)
from sphsplines.sphere import (
    KnotSet,
    equal_angle_patch_grid,
    fibonacci_lattice,
    nodal_width,
)
from sphsplines.spline import SplineField, evaluate, native_norm


def _report(cid, ok, detail):
    print("criterion %s: %s -- %s" % (cid, "PASS" if ok else "FAIL", detail))
    return ok


# --------------------------------------------------------------- criterion 1


def test_c01_wendland_construction_exact():
    start = time.perf_counter()
    poly = wendland_construct(3, 1)
    # (1-r)^4 (1+4r) = 1 - 10 r^2 + 20 r^3 - 15 r^4 + 4 r^5
    expected = [Fraction(1), Fraction(0), Fraction(-10), Fraction(20),
                Fraction(-15), Fraction(4)]
    exact = poly.coeffs == expected
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 1.0
    assert _report("01", ok, "coeffs %s exact rational match: %s (%.2fs)"
                   % (poly.coeffs, exact, elapsed))


# --------------------------------------------------------------- criterion 2


def test_c02_matern_bessel_oracle():
    start = time.perf_counter()
    r = np.linspace(0.25, 5.0, 20)
    worst = 0.0
    for p in (0, 1, 2, 3):  # nu = 1/2, 3/2, 5/2, 7/2
        nu = p + 0.5
        diff = np.max(np.abs(matern_halfinteger(p, r) - matern_bessel(nu, r)))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert _report("02", ok, "max |closed form - Bessel oracle| = %.2e (%.2fs)"
                   % (worst, elapsed))


# --------------------------------------------------------------- criterion 3


def test_c03_fibonacci_nodal_width():
    start = time.perf_counter()
    width = nodal_width(fibonacci_lattice(1000), probe_resolution=100_000)
    target = 2.728 / math.sqrt(1000)
    elapsed = time.perf_counter() - start
    ok = abs(width - target) <= 0.10 * target and elapsed < 30.0
    assert _report("03", ok, "width %.5f vs 2.728/sqrt(1000) = %.5f, ratio %.3f (%.1fs)"
                   % (width, target, width / target, elapsed))


# --------------------------------------------------------------- criterion 4


def test_c04_fourier_legendre_roundtrip():
    # Both kernels are positive definite, so every psi_hat[n] >= 0 and the
    # degree-512 error at t = 1 is exactly the tail sum_{n>512} (2n+1)/(4 pi)
    # psi_hat[n]: about 3.8e-5 (Matern) and 5.5e-5 (Wendland), which no
    # transform can remove.  The 1e-6 tolerance is therefore asserted at
    # degree 4096, where the tails have fallen below it, and degree 512 is
    # held to differing from the kernel by nothing but its tail.
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 2001)
    rows = []
    checks = []
    all_ok = True
    for name, kern in (("matern", matern_zonal(2.5, 0.1)),
                       ("wendland", wendland_zonal(3, 1, 0.2))):
        exact = kern(grid)
        series = kern.series(n_max=512)
        shallow = resynthesize(series, grid)
        sup = float(np.max(np.abs(shallow - exact)))
        deep = kern.series(n_max=4096, quad_order=4200)
        deep_sup = float(np.max(np.abs(resynthesize(deep, grid) - exact)))
        head = resynthesize(LegendreSeries(deep.coeffs[:513]), grid)
        head_gap = float(np.max(np.abs(shallow - head)))
        positive = bool(np.all(series.coeffs > 0))
        n = np.arange(16, 257)
        slope = float(np.polyfit(np.log(n), np.log(series.coeffs[16:257]), 1)[0])
        slope_ok = abs(slope - (-2 * kern.beta)) <= 0.2 * 2 * kern.beta
        rows.append("%s: sup@4096 %.3e, sup@512 %.3e (tail), |R512 - R4096<=512| "
                    "%.1e, positive %s, slope %.2f" %
                    (name, deep_sup, sup, head_gap, positive, slope))
        all_ok = (all_ok and deep_sup < 1e-6 and head_gap < 1e-8 and positive
                  and slope_ok)
        checks.append((name, deep_sup, sup, head_gap))
        assert positive, "%s: coefficients not all positive" % name
        assert slope_ok, "%s: slope %.2f outside -%.1f +/- 20%%" % (name, slope, 2 * kern.beta)
    elapsed = time.perf_counter() - start
    all_ok = all_ok and elapsed < 20.0
    _report("04", all_ok, "; ".join(rows) + " (%.1fs)" % elapsed)
    for name, deep_sup, sup, head_gap in checks:
        assert deep_sup < 1e-6, (
            "%s: degree-4096 resynthesis sup-error %.3e exceeds 1e-6"
            % (name, deep_sup)
        )
        assert head_gap < 1e-8, (
            "%s: degree-512 roundtrip differs from the first 513 degree-4096 "
            "coefficients by %.3e (its sup-error %.3e should be the truncation "
            "tail alone)" % (name, head_gap, sup)
        )


# --------------------------------------------------------------- criterion 5


def _scalar_objective(model, tau, x, z):
    return model.value(np.array([x])) + (x - z) ** 2 / (2.0 * tau)


def test_c05_prox_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gap = -np.inf
    n_instances = 0
    for trial in range(10):
        y = float(rng.uniform(0.2, 3.0))
        z = float(rng.uniform(-4.0, 4.0))
        tau = float(rng.uniform(0.1, 2.0))
        rho = float(rng.uniform(0.1, 1.0))
        models = [ExactMatch(np.array([y])), L1(np.array([y])),
                  L2Ball(np.array([y]), rho), KL(np.array([y])),
                  LeastSquares(np.array([y]))]
        for model in models:
            x_prox = float(prox_cost(model, tau, np.array([z]))[0])
            grid = np.arange(-6.0, 6.0, 1e-3)
            vals = [_scalar_objective(model, tau, g, z) for g in grid]
            gap = _scalar_objective(model, tau, x_prox, z) - min(vals)
            worst_gap = max(worst_gap, gap)
            n_instances += 1
    moreau = 0.0
    for _ in range(100):
        v = rng.standard_normal(5)
        y = np.abs(rng.standard_normal(5)) + 0.1
        model = L1(y)
        sigma = float(rng.uniform(0.2, 2.0))
        lhs = prox_conjugate(model, sigma, v)
        rhs = v - sigma * prox_cost(model, 1.0 / sigma, v / sigma)
        moreau = max(moreau, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and moreau < 1e-12 and elapsed < 10.0
    assert _report("05", ok,
                   "%d prox instances, worst objective gap %.2e vs grid; "
                   "Moreau residual %.2e (%.1fs)"
                   % (n_instances, worst_gap, moreau, elapsed))


# --------------------------------------------------------------- criterion 6


def test_c06_solver_cross_agreement():
    start = time.perf_counter()
    details = []
    ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 60))
        y = rng.standard_normal(30)
        G = GramMatrix(A)
        lam = 0.1 * float(np.max(np.abs(A.T @ y)))
        model = LeastSquares(y)
        cfg = SolverConfig(lam, eps_stop=1e-9, max_iter=60000)
        obj_p = pds_solve(G, model, cfg).objective_trace[-1]
        obj_a = apgd_solve(G, model, cfg).objective_trace[-1]
        rel = abs(obj_p - obj_a) / abs(obj_a)
        norm = spectral_norm(G)
        tau = sigma = 1.0 / norm
        exact = tau * sigma * norm**2 == 1.0
        svd = float(np.linalg.svd(A, compute_uv=False)[0])
        svd_rel = abs(norm - svd) / svd
        details.append("seed %d: obj rel %.1e, steps exact %s, svd rel %.1e"
                       % (seed, rel, exact, svd_rel))
        ok = ok and rel <= 1e-6 and exact and svd_rel <= 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert _report("06", ok, "; ".join(details) + " (%.1fs)" % elapsed)


# --------------------------------------------------------------- criterion 7


def test_c07_representer_sparsity():
    start = time.perf_counter()
    kernel = matern_zonal(2.5, 0.25, convention="eq60")
    knots = fibonacci_lattice(200)
    details = []
    ok = True
    for L, seed in ((10, 100), (10, 101), (10, 104), (25, 100), (25, 103)):
        dirs = random_directions(L, seed)
        rng = np.random.default_rng(seed + 1000)
        y = rng.standard_normal(L)
        G = assemble_gram(kernel, [DiracFunctional(d) for d in dirs], knots)
        res = pds_solve(G, ExactMatch(y),
                        SolverConfig(1.0, eps_stop=1e-7, max_iter=100000))
        x = res.x
        active = int(np.sum(np.abs(x) > 1e-4 * np.abs(x).max()))
        details.append("L=%d seed=%d active=%d" % (L, seed, active))
        ok = ok and active <= L
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _report("07", ok, "; ".join(details) + " (%.1fs)" % elapsed)


# --------------------------------------------------------------- criterion 8

_C8_KERNEL = dict(beta=2.5, epsilon=0.35, convention="eq60")


def _c8_data():
    kernel = matern_zonal(**_C8_KERNEL)
    knots = fibonacci_lattice(80)
    truth = plant_spline(kernel, knots, 5, (0.5, 2.0), 7)
    dirs = random_directions(240, 8)
    y = evaluate(truth, dirs)
    G = assemble_gram(kernel, [DiracFunctional(d) for d in dirs], knots)
    return kernel, knots, truth, dirs, y, G


def test_c08_noiseless_consistency(tmp_path):
    start = time.perf_counter()
    cfg = {
        "kernel": {"family": "matern", **_C8_KERNEL},
        "knots": {"fibonacci": 80},
        "sampling": {"synthetic": {"kind": "scatter", "bumps": 5,
                                   "amplitude": [0.5, 2.0], "samples": 240}},
        "cost": {"kind": "exact"},
        "lambda": 1e-4,
        "solver": {"kind": "pds"},
        "eps_stop": 1e-9,
        "max_iter": 150000,
        "seed": 7,
        "outputs": {"directory": str(tmp_path)},
    }
    manifest = run_reconstruction(cfg)
    _, _, truth, _, y, G = _c8_data()
    _, x = load_coefficients_csv(manifest["outputs"]["coefficients"])
    rel = float(np.linalg.norm(G.matvec(x) - y) / np.linalg.norm(y))
    obj_sol = 1e-4 * float(np.abs(x).sum())
    obj_plant = 1e-4 * float(np.abs(truth.coeffs).sum())
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-6 and obj_sol <= obj_plant + 1e-6 and elapsed < 60.0
    assert _report("08", ok,
                   "relative residual %.2e, objective %.6e vs planted %.6e (%.1fs)"
                   % (rel, obj_sol, obj_plant, elapsed))


# --------------------------------------------------------------- criterion 9


def test_c09_rkhs_projection_decay():
    start = time.perf_counter()
    kernel = matern_zonal(2.5, 0.2)
    target_knots = random_directions(10, 123)
    rng = np.random.default_rng(124)
    amps = rng.uniform(0.5, 2.0, 10) * rng.choice([-1, 1], 10)
    h = SplineField(kernel, target_knots, amps)
    probes = fibonacci_lattice(20000).points
    h_vals = evaluate(h, probes)
    errs = []
    for N in (100, 400, 1600):
        lat = fibonacci_lattice(N)
        proj = rkhs_project(kernel, lat, evaluate(h, lat.points))
        errs.append(float(np.max(np.abs(evaluate(proj, probes) - h_vals))))
    decreasing = errs[0] > errs[1] > errs[2]
    L_D = math.sqrt(lipschitz_estimate(kernel))
    theta = nodal_width(fibonacci_lattice(1600), probe_resolution=200_000)
    norm_h = native_norm(h, knot_gram(kernel, h.knots))
    bound = 2**1.5 * L_D * math.sqrt(theta) * norm_h
    elapsed = time.perf_counter() - start
    ok = decreasing and errs[2] < bound and elapsed < 180.0
    assert _report("09", ok,
                   "sup-errors %s decreasing %s; N=1600 error %.4f < bound %.4f (%.1fs)"
                   % (["%.4f" % e for e in errs], decreasing, errs[2], bound,
                      elapsed))


# -------------------------------------------------------------- criterion 10


def test_c10_poisson_kl_pipeline():
    start = time.perf_counter()
    kernel = wendland_zonal(3, 1, 0.3)
    knots = fibonacci_lattice(400)
    truth = plant_spline(kernel, knots, 6, (0.5, 2.0), 21)
    patches = equal_angle_patch_grid(120, 240)  # 1.5 degree bins
    functionals = [PatchFunctional(b, quadrature_order=4) for b in patches]
    G = assemble_gram(kernel, functionals, knots)
    rates_clean = np.clip(G.matvec(truth.coeffs), 0.0, None)
    rates = (12.0 / rates_clean.max()) * rates_clean
    counts = poisson_counts(rates, 22).astype(float)
    mean_rate = float(rates.mean())

    lam = 0.05 * float(np.max(np.abs(G.rmatvec(counts))))
    model = KL(counts)
    kl = pds_solve(G, model, SolverConfig(lam, eps_stop=1e-6, max_iter=8000))
    fitted = G.matvec(kl.x)
    obj_kl = lam * float(np.abs(kl.x).sum()) + model.value(fitted)
    obj_zero = model.value(np.zeros_like(counts))
    ls = pds_solve(G, LeastSquares(counts),
                   SolverConfig(lam, eps_stop=1e-6, max_iter=8000))

    def active(x):
        return int(np.sum(np.abs(x) > 1e-4 * np.abs(x).max()))

    rates_ok = fitted.min() >= -1e-6 * (1.0 + counts.max())
    ratio_ok = obj_zero >= 10.0 * obj_kl
    sparsity_ok = active(ls.x) <= active(kl.x)
    elapsed = time.perf_counter() - start
    ok = (np.isfinite(obj_kl) and rates_ok and ratio_ok and mean_rate <= 1.0
          and sparsity_ok and elapsed < 180.0)
    assert _report("10", ok,
                   "28800 patches, mean rate %.3f; objective %.1f vs %.4g at zero; "
                   "min fitted rate %.1e; active LS %d <= KL %d (%.1fs)"
                   % (mean_rate, obj_kl, obj_zero, fitted.min(),
                      active(ls.x), active(kl.x), elapsed))


# -------------------------------------------------------------- criterion 11


def test_c11_tikhonov_contrast():
    start = time.perf_counter()
    kernel, _, _, dirs, y, G = _c8_data()
    y_noisy = add_gaussian_noise(y, 10.0, 9)
    rho = 1.05 * float(np.linalg.norm(y_noisy - y))
    gtv = pds_solve(G, L2Ball(y_noisy, rho),
                    SolverConfig(0.01, eps_stop=1e-6, max_iter=60000))
    K = knot_gram(self_convolve(kernel.series()), KnotSet(dirs))
    x_tik = tikhonov_solve(K, y_noisy, 1e-3).x

    def active(x):
        return int(np.sum(np.abs(x) > 1e-4 * np.abs(x).max()))

    L = len(dirs)
    gtv_ok = active(gtv.x) <= L
    tik_ok = active(x_tik) > 0.9 * L
    elapsed = time.perf_counter() - start
    ok = gtv_ok and tik_ok and elapsed < 120.0
    assert _report("11", ok,
                   "gTV active %d of %d lattice coeffs (<= L = %d); "
                   "quadratic baseline active %d of %d (> %.0f) (%.1fs)"
                   % (active(gtv.x), G.shape[1], L, active(x_tik), L,
                      0.9 * L, elapsed))
