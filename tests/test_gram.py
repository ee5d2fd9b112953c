import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from oracles import patch_integral_quad
from scipy import sparse
from scipy.sparse import _sparsetools

from sphsplines import gram
from sphsplines.gram import (
    DiracFunctional,
    GramMatrix,
    PatchFunctional,
    assemble_gram,
    knot_gram,
    spectral_norm,
)
from sphsplines.kernels import ZonalKernel, matern_zonal, self_convolve, wendland_zonal
from sphsplines.prox import ExactMatch, LeastSquares
from sphsplines.solvers import SolverConfig, apgd_solve, pds_solve
from sphsplines.sphere import (
    KnotSet,
    PatchBounds,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
)


def constant_kernel():
    return ZonalKernel(lambda t: np.ones_like(t))


def random_directions(L, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((L, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# ---------------------------------------------------------------- dirac rows


def one_row(kernel, functional, knots):
    # (indices, values) of the Gram row of a single functional
    row = assemble_gram(kernel, [functional], knots).matrix
    return row.indices, row.data


def dirac_row(kernel, p, knots):
    return one_row(kernel, DiracFunctional(p), knots)


def patch_row(kernel, b, knots, Q=8):
    return one_row(kernel, PatchFunctional(b, Q), knots)


def test_dirac_row_at_knot_is_unit():
    kern = wendland_zonal(3, 1, 0.3)
    knots = fibonacci_lattice(50)
    idx, vals = dirac_row(kern, knots.points[7], knots)
    assert vals[idx == 7] == 1.0


def test_dirac_row_matches_direct_evaluation():
    # no quadrature involved: the row IS the kernel evaluated at the knots
    kern = matern_zonal(1.5, 0.2)
    knots = fibonacci_lattice(100)
    p = random_directions(1, 4)[0]
    idx, vals = dirac_row(kern, p, knots)
    direct = kern(knots.points @ p)
    assert np.array_equal(idx, np.arange(len(knots)))  # every entry > 1e-12
    assert np.array_equal(vals, direct[idx])


def test_dirac_row_empty_outside_support():
    kern = wendland_zonal(3, 1, 0.05)
    knots = KnotSet(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    idx, vals = dirac_row(kern, [0.0, 0.0, -1.0], knots)
    assert idx.size == 0 and vals.size == 0


def test_dirac_row_value_at_chord_epsilon():
    eps = 0.1
    kern = matern_zonal(2.5, eps, convention="eq60")
    t_eps = 1.0 - eps**2 / 2.0  # chord exactly epsilon
    knots = KnotSet(np.array([[math.sqrt(1.0 - t_eps**2), 0.0, t_eps]]))
    idx, vals = dirac_row(kern, [0.0, 0.0, 1.0], knots)
    np.testing.assert_allclose(vals[0], 2.0 * math.exp(-1.0), rtol=1e-12)


def test_dirac_row_cutoff_omits_small_entries():
    # exp(-c / 0.05) falls below the 1e-12 cutoff at chords c > 1.39
    kern = matern_zonal(1.5, 0.05)
    knots = fibonacci_lattice(300)
    p = np.array([0.0, 0.0, 1.0])
    idx, vals = dirac_row(kern, p, knots)
    direct = kern(knots.points @ p)
    kept = np.nonzero(direct > 1e-12)[0]
    assert 0 < kept.size < len(knots) and np.array_equal(kept, idx)
    assert np.array_equal(vals, direct[idx])


# ---------------------------------------------------------------- patch rows


def test_patch_row_constant_kernel_gives_area():
    b = PatchBounds(0.0, 90.0, 0.0, 90.0)
    knots = KnotSet(np.array([[0.0, 0.0, 1.0]]))
    idx, vals = patch_row(constant_kernel(), b, knots)
    assert abs(vals[0] - math.pi / 2.0) < 1e-10


def test_patch_partition_sums_to_sphere_area():
    # indicators of a partition sum to 1, so the row sums integrate 1 over S^2
    knots = KnotSet(np.array([[0.0, 0.0, 1.0]]))
    total = 0.0
    for b in equal_angle_patch_grid(6, 12):
        _, vals = patch_row(constant_kernel(), b, knots)
        total += vals[0]
    assert abs(total - 4.0 * math.pi) < 1e-8


def test_patch_row_exact_zero_outside_support():
    eps = 0.1
    kern = wendland_zonal(3, 1, eps)
    b = PatchBounds(0.0, 2.0, 0.0, 2.0)
    far = direction_from_lonlat(180.0, -10.0)
    near = direction_from_lonlat(1.0, 1.0)
    knots = KnotSet(np.stack([far, near]))
    idx, vals = patch_row(kern, b, knots)
    assert list(idx) == [1]
    assert np.all(vals != 0.0)


def test_patch_row_quadrature_refinement():
    # doubling Q moves no entry by more than 1e-8, including a knot inside
    # the patch where the kernel has its t = 1 kink
    kern = matern_zonal(2.5, 0.1, convention="eq60")
    pts = np.vstack([fibonacci_lattice(200).points,
                     direction_from_lonlat(10.75, 20.75)])
    knots = KnotSet(pts)
    b = PatchBounds(10.0, 11.5, 20.0, 21.5)
    i8, v8 = patch_row(kern, b, knots, Q=8)
    i16, v16 = patch_row(kern, b, knots, Q=16)
    assert np.array_equal(i8, i16)
    assert np.abs(v8 - v16).max() < 1e-8


def test_patch_row_matches_adaptive_quadrature():
    # knot outside the patch: the integrand is smooth there and the tensor
    # rule converges spectrally (the t = 1 kink case is covered by the
    # refinement test above)
    kern = matern_zonal(1.5, 0.3)
    knot = direction_from_lonlat(30.0, 50.0)
    knots = KnotSet(knot.reshape(1, 3))
    b = PatchBounds(5.0, 15.0, 30.0, 40.0)
    _, vals = patch_row(kern, b, knots, Q=12)
    ref = patch_integral_quad(kern, b, knot)
    np.testing.assert_allclose(vals[0], ref, rtol=1e-9)


# ------------------------------------------------------------------ assembly


def test_assemble_diracs_at_knots_unit_diagonal():
    knots = fibonacci_lattice(40)
    kern = wendland_zonal(3, 1, 0.4)
    G = assemble_gram(kern, [DiracFunctional(p) for p in knots.points], knots)
    assert G.shape == (40, 40)
    np.testing.assert_array_equal(G.toarray().diagonal(), np.ones(40))


def test_assemble_compact_support_density():
    kern = wendland_zonal(3, 1, 0.05)
    knots = fibonacci_lattice(2000)
    G = assemble_gram(kern, [DiracFunctional(p) for p in random_directions(500, 11)],
                      knots)
    assert G.shape == (500, 2000)
    assert G.density < 0.02


def test_assemble_mixed_rows_permutation_equivariant():
    kern = matern_zonal(1.5, 0.3)
    knots = fibonacci_lattice(30)
    funcs = [
        DiracFunctional(direction_from_lonlat(10.0, 10.0)),
        PatchFunctional(PatchBounds(0.0, 30.0, 0.0, 30.0)),
        DiracFunctional(direction_from_lonlat(-40.0, 55.0)),
        PatchFunctional(PatchBounds(100.0, 130.0, -60.0, -30.0), quadrature_order=10),
    ]
    G = assemble_gram(kern, funcs, knots)
    assert G.shape == (4, 30)
    perm = [2, 0, 3, 1]
    G_perm = assemble_gram(kern, [funcs[i] for i in perm], knots)
    np.testing.assert_array_equal(G_perm.toarray(), G.toarray()[perm])


@pytest.mark.parametrize("kern", [wendland_zonal(3, 1, 0.3), matern_zonal(2.5, 0.3)])
def test_assemble_across_blocks_matches_stacked_halves(kern, monkeypatch):
    # small blocks split patches' nodes between blocks; the partial rows
    # must sum to the rows that two separate half-size Grams hold
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", 2000)
    knots = fibonacci_lattice(400)
    funcs = [PatchFunctional(b, 4) for b in equal_angle_patch_grid(6, 10)]
    nodes = np.concatenate([f.nodes()[0] for f in funcs])
    assert len(list(gram.kernel_blocks(kern, nodes, knots.points))) > 1
    G = assemble_gram(kern, funcs, knots).matrix
    halves = sparse.vstack([assemble_gram(kern, funcs[:30], knots).matrix,
                            assemble_gram(kern, funcs[30:], knots).matrix]).tocsr()
    assert np.array_equal(G.indptr, halves.indptr)
    assert np.array_equal(G.indices, halves.indices)
    assert np.abs(G.data - halves.data).max() <= 1e-15 * np.abs(halves.data).max()


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _edge_pairs(tmin, count, seed):
    """(points, knots): point l at an angle from knot l within 4e-15 of
    arccos(tmin), so ``<p, r>`` lands within some tens of ulps of tmin, on
    both sides, a third of the pairs within 4 ulps."""
    rng = np.random.default_rng(seed)
    knots = _unit(rng.standard_normal((count, 3)))
    u = rng.standard_normal((count, 3))
    u = _unit(u - np.sum(u * knots, axis=1, keepdims=True) * knots)
    theta = math.acos(tmin) + rng.integers(-40, 41, count) * 1e-16
    return np.cos(theta)[:, None] * knots + np.sin(theta)[:, None] * u, knots


def _pair_sets(name, tmin):
    if name == "random":
        rng = np.random.default_rng(11)
        return _unit(rng.standard_normal((2000, 3))), _unit(rng.standard_normal((400, 3)))
    if name == "fibonacci":
        return fibonacci_lattice(3000).points, fibonacci_lattice(400).points
    if name == "ring":  # rings of shared latitude, on both sides
        lon, lat = np.meshgrid(np.arange(72) * 5.0, np.arange(-87.5, 90.0, 5.0))
        ring = np.arange(72) * 5.0 + 2.5
        knots = direction_from_lonlat(np.concatenate([ring, ring[::2]]),
                                      np.repeat([0.0, 30.0], [72, 36]))
        return direction_from_lonlat(lon.ravel(), lat.ravel()), knots
    return _edge_pairs(tmin, 600, 5)


def _exact_inner(p, r):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(p, r))


@pytest.mark.parametrize("block_entries", [gram.BLOCK_ENTRIES, 3000], ids=["default", "small"])
@pytest.mark.parametrize("name", ["random", "fibonacci", "ring", "edge"])
def test_kernel_blocks_take_t_from_one_matmul_per_block(name, block_entries, monkeypatch):
    # each block of BLOCK_ENTRIES // N rows is the kernel at the inner
    # products T of one matmul, kept where T > tmin; against the exact
    # inner product, no pair more than 4 ulps from the edge is misplaced
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", block_entries)
    kern = wendland_zonal(3, 1, 0.3)
    tmin = kern.support_tmin
    points, knots = _pair_sets(name, tmin)
    blocks = list(gram.kernel_blocks(kern, points, knots))
    step = max(1, block_entries // len(knots))
    assert [rows for rows, _ in blocks] == [
        slice(lo, min(lo + step, len(points))) for lo in range(0, len(points), step)]
    if block_entries == 3000:
        assert len(blocks) > 1
    assert sum(B.nnz for _, B in blocks) > 0
    ulp = Fraction(np.spacing(tmin))
    above, below = Fraction(tmin) + 4 * ulp, Fraction(tmin) - 4 * ulp
    sides = []
    for rows, B in blocks:
        T = points[rows] @ knots.T
        assert sparse.isspmatrix_csr(B) and B.has_canonical_format
        stored = np.zeros(B.shape, dtype=bool)
        stored[np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)), B.indices] = True
        assert np.array_equal(stored, T > tmin)
        expected = kern(T)
        expected[T <= tmin] = 0.0
        assert B.toarray().tobytes() == expected.tobytes()
        if name == "edge":  # a matmul's T lies within 4e-16 of the exact value
            for i, j in zip(*np.nonzero(np.abs(T - tmin) < 1e-12)):
                exact = _exact_inner(points[rows][i], knots[j])
                if exact > above or exact < below:
                    assert stored[i, j] == (exact > above)
                    sides.append(exact > above)
    if name == "edge":  # planted pairs beyond 4 ulps on both sides
        assert sides.count(True) >= 20 and sides.count(False) >= 20


@pytest.mark.parametrize("kern, dense", [(matern_zonal(2.5, 0.35), True),
                                         (matern_zonal(2.5, 0.05), False),
                                         (wendland_zonal(3, 1, 0.3), False)],
                         ids=["matern", "matern-narrow", "wendland"])
def test_point_sample_gram_is_bitwise_the_weighted_product(kern, dense, monkeypatch):
    # point samples have W = I, so under a global kernel G is the stacked
    # kernel blocks; every G holds the bytes of the product W . Psi with
    # |v| <= 1e-12 dropped, dense where that is no larger than the CSR: the
    # wide Matern G, not the narrow one, whose tail falls below the cut,
    # nor the Wendland one
    monkeypatch.setattr(gram, "BLOCK_ENTRIES", 20000)  # several blocks
    knots = fibonacci_lattice(400)
    points = random_directions(300, 5)
    blocks = [B for _, B in gram.kernel_blocks(kern, points, knots.points)]
    assert len(blocks) > 1
    Psi = np.vstack(blocks) if kern.support_tmin is None else sparse.vstack(blocks)
    ref = sparse.csr_matrix(sparse.identity(300, format="csr") @ Psi)
    small = np.abs(ref.data) <= 1e-12
    ref.data[small] = 0.0
    ref.eliminate_zeros()
    ref.sort_indices()
    G = assemble_gram(kern, [DiracFunctional(p) for p in points], knots)
    assert (G.dense is not None) == dense
    if kern.support_tmin is None:  # the narrow Matern G is sparse by its cut tail
        assert np.any(small) != dense
    assert G.nnz == ref.nnz and G.toarray().tobytes() == ref.toarray().tobytes()
    for name in ("indptr", "indices", "data"):
        assert getattr(G.matrix, name).tobytes() == getattr(ref, name).tobytes()


def test_assemble_rejects_rough_kernel_for_diracs():
    # decay order 1.8 <= 2: too rough for point evaluation, fine for patches
    rough = ZonalKernel(lambda t: np.exp(t - 1.0), beta=0.9)
    knots = fibonacci_lattice(10)
    with pytest.raises(ValueError, match="too small"):
        assemble_gram(rough, [DiracFunctional([0.0, 0.0, 1.0])], knots)
    G = assemble_gram(rough, [PatchFunctional(PatchBounds(0, 10, 0, 10))], knots)
    assert G.shape == (1, 10)


def test_assemble_empty_functionals_rejected():
    with pytest.raises(ValueError):
        assemble_gram(matern_zonal(1.5, 0.3), [], fibonacci_lattice(10))


def test_gram_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("form", ["list", "dense", "sparse"])
def test_gram_matrix_rejects_complex_entries(form):
    # an imaginary part is not dropped: a solve would run on another G
    A = [[1 + 5j, 2], [0.5, 3j]]
    A = {"list": A, "dense": np.array(A), "sparse": sparse.csr_matrix(A)}[form]
    with pytest.raises(ValueError, match="Gram entries must be real"):
        GramMatrix(A)


@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_dense_gram_reads_no_csr(form):
    # a G stored dense answers nnz, density, toarray, its norm and its
    # products from the array, whichever form it was given in; its CSR is
    # built on a caller's first read, and -0.0 is stored as 0.0, as the
    # CSR's dropped zero reads
    A = np.array([[-0.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    G = GramMatrix(A if form == "dense" else sparse.csr_matrix(A))
    assert G.dense is not None and not np.signbit(G.dense[0, 0])
    assert (G.nnz, G.density) == (5, 5 / 6)
    assert G.toarray().tobytes() == G.dense.tobytes()
    G.matvec(np.ones(3))
    G.rmatvec(np.ones(2))
    spectral_norm(G)
    assert "matrix" not in vars(G) and "matrix_t" not in vars(G)
    assert G.matrix.nnz == 5 and G.toarray().tobytes() == G.matrix.toarray().tobytes()
    assert np.shares_memory(G.matrix_t.data, G.matrix.data)


def test_patch_functional_order_validated():
    with pytest.raises(ValueError):
        PatchFunctional(PatchBounds(0, 1, 0, 1), quadrature_order=1)


@pytest.mark.parametrize("order", [2.9, True, "8"], ids=["float", "bool", "string"])
def test_patch_functional_order_must_be_an_integer(order):
    with pytest.raises(ValueError, match="quadrature order must be an integer >= 2"):
        PatchFunctional(PatchBounds(0, 1, 0, 1), quadrature_order=order)


def test_dirac_functional_unit_validated():
    with pytest.raises(ValueError):
        DiracFunctional([1.0, 1.0, 0.0])


# ------------------------------------------------------------- spectral norm


def test_spectral_norm_diagonal():
    G = GramMatrix(np.diag([2.0, 1.0]))
    assert abs(spectral_norm(G) - 2.0) < 1e-9


def test_spectral_norm_rank_one():
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(8), rng.standard_normal(12)
    G = GramMatrix(np.outer(u, v))
    ref = np.linalg.norm(u) * np.linalg.norm(v)
    np.testing.assert_allclose(spectral_norm(G), ref, rtol=1e-10)


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((20, 30))
    ref = np.linalg.svd(A, compute_uv=False)[0]
    np.testing.assert_allclose(spectral_norm(GramMatrix(A)), ref, rtol=1e-6)


def test_spectral_norm_bounds():
    rng = np.random.default_rng(23)
    for _ in range(5):
        A = rng.standard_normal((15, 9))
        s = spectral_norm(GramMatrix(A))
        col_norms = np.linalg.norm(A, axis=0)
        assert s >= col_norms.max() - 1e-9
        assert s <= np.linalg.norm(A) + 1e-9


def test_spectral_norm_cached():
    G = GramMatrix(np.diag([3.0, 1.0]))
    spectral_norm(G)
    assert G.spectral_norm_cache is not None
    G.spectral_norm_cache = 123.0  # sentinel: cache must short-circuit
    assert spectral_norm(G) == 123.0


def test_spectral_norm_zero_matrix_rejected():
    with pytest.raises(ValueError):
        spectral_norm(GramMatrix(np.zeros((3, 4))))


def test_stored_zeros_are_dropped_and_the_norm_rejects_them():
    # explicit zeros are not entries: nnz, density and the all-zero check
    # read values
    A = sparse.csr_matrix((np.zeros(2), ([0, 1], [0, 1])), shape=(2, 3))
    G = GramMatrix(A)
    assert G.nnz == 0 and G.density == 0.0
    assert A.nnz == 2  # the caller's matrix keeps its storage
    with pytest.raises(ValueError, match="all-zero"):
        spectral_norm(G)


def test_spectral_norm_of_a_near_degenerate_spectrum():
    # a sweep-raster layout whose top two singular values nearly coincide
    # (s2/s1 = 0.99985), where power iteration needed 12,705 steps
    rng = np.random.default_rng([6, 4])
    rng.choice(400, size=8, replace=False)
    rng.uniform(-2, 2, size=8)
    d = rng.standard_normal((3000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    G = assemble_gram(wendland_zonal(3, 1, 0.3), [DiracFunctional(p) for p in d],
                      fibonacci_lattice(400))
    np.testing.assert_allclose(spectral_norm(G), np.linalg.norm(G.toarray(), 2),
                               rtol=1e-13)


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)], ids=["row", "column", "scalar"])
def test_spectral_norm_of_a_single_row_or_column(shape):
    A = np.random.default_rng(12).standard_normal(shape)
    np.testing.assert_allclose(spectral_norm(GramMatrix(A)), np.linalg.norm(A, 2),
                               rtol=1e-15)


def test_spectral_norm_rounds_up_to_balanced_coupled_steps():
    # the norm is a float whose balanced steps 1/n couple exactly, and it
    # stays at the dense norm
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.standard_normal((7, 5))
        n = spectral_norm(GramMatrix(A))
        assert (1.0 / n) * (1.0 / n) * (n * n) == 1.0
        np.testing.assert_allclose(n, np.linalg.norm(A, 2), rtol=1e-13)


@pytest.mark.parametrize("name", ["tiny diagonal", "tiny row", "huge diagonal",
                                  "tiny Lanczos diagonal"])
def test_spectral_norm_holds_at_scales_whose_squares_leave_the_floats(name):
    # the squares of 1e-170 underflow to 0 and those of 1e160 overflow to
    # inf, in a Gram and in the products of a Lanczos call alike
    A = {"tiny diagonal": np.diag([1e-170, 2e-170]),
         "tiny row": np.full((1, 3), 1e-170),
         "huge diagonal": np.diag([1e160, 2e160]),
         "tiny Lanczos diagonal": sparse.diags(
             1e-170 * np.arange(1.0, gram.DENSE_NORM_MAX + 2))}[name]
    G = GramMatrix(A)
    assert gram.takes_dense_norm(G) == (name != "tiny Lanczos diagonal")
    np.testing.assert_allclose(spectral_norm(G), np.linalg.norm(G.toarray(), 2),
                               rtol=1e-13)


def test_spectral_norm_rejects_a_norm_past_the_largest_float():
    # every entry is finite, the norm sqrt(3) * 1.7e308 is not: the norm
    # raises naming the overflow and caches nothing
    G = GramMatrix(np.full((1, 3), 1.7e308))
    for _ in range(2):
        with pytest.raises(ValueError, match="spectral norm overflows"):
            spectral_norm(G)
        assert G.spectral_norm_cache is None


@pytest.mark.parametrize("solve, model", [(pds_solve, ExactMatch(np.array([1.0]))),
                                          (pds_solve, LeastSquares(np.array([1.0]))),
                                          (apgd_solve, LeastSquares(np.array([1.0])))],
                         ids=["pds-exact", "pds-ls", "apgd-ls"])
def test_solvers_reject_a_gram_whose_norm_overflows(solve, model):
    # the steps would be 1/inf = 0: an exact-match PDS run stopped at x = 0
    # as converged, a least-squares one divided by zero in its conjugate prox
    G = GramMatrix(np.full((1, 3), 1.7e308))
    with pytest.raises(ValueError, match="spectral norm overflows"):
        solve(G, model, SolverConfig(0.1))


def test_spectral_norm_is_one_value_whatever_ran_before_it():
    # the dense eigenvalue does not read ARPACK's random state, which other
    # svds calls move: eye(2, 3), whose start vector of ones is an
    # eigenvector of G G^T, read 1.0 or an ulp either side through Lanczos
    from scipy.sparse.linalg import svds

    rng = np.random.default_rng(41)
    A = rng.standard_normal((30, 50))
    seen = {"eye": set(), "random": set()}
    for _ in range(30):
        svds(rng.standard_normal((30, 50)), k=1, return_singular_vectors=False)
        seen["eye"].add(spectral_norm(GramMatrix(np.eye(2, 3))))
        svds(sparse.random(40, 60, density=0.2, random_state=rng), k=2,
             return_singular_vectors=False)
        seen["random"].add(spectral_norm(GramMatrix(A)))
    assert seen["eye"] == {1.0}
    assert len(seen["random"]) == 1


def test_import_leaves_arpack_unloaded():
    # scipy.sparse.linalg loads inside spectral_norm, with the first
    # Lanczos call a process makes (here for a G with more than
    # DENSE_NORM_MAX rows and columns); the package import, a dense norm
    # and the commands that take no norm leave it unloaded
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, numpy as np, sphsplines.cli\n"
            "from scipy import sparse\n"
            "from sphsplines.gram import DENSE_NORM_MAX, GramMatrix, spectral_norm\n"
            "seen = ['scipy.sparse.linalg' in sys.modules]\n"
            "spectral_norm(GramMatrix(np.eye(2)))\n"
            "seen.append('scipy.sparse.linalg' in sys.modules)\n"
            "n = DENSE_NORM_MAX + 1\n"
            "norm = spectral_norm(GramMatrix(sparse.diags(np.arange(1.0, n + 1))))\n"
            "print(*seen, 'scipy.sparse.linalg' in sys.modules, n, norm)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    *loaded, n, norm = proc.stdout.split()
    assert loaded == ["False", "False", "True"]
    assert int(n) == gram.DENSE_NORM_MAX + 1 and abs(float(norm) - float(n)) <= 1e-9


def _columns_of_128(n_cols, seed):
    # 200 x n_cols, 128 entries in each column: a 0.64 density, so G is
    # stored sparse, and its Gram G G^T takes n_cols * 128**2 multiply-adds
    rows = (np.arange(128)[None, :] + 3 * np.arange(n_cols)[:, None]) % 200
    vals = np.random.default_rng(seed).uniform(1.0, 2.0, rows.size)
    return sparse.csr_matrix((vals, (rows.ravel(), np.repeat(np.arange(n_cols), 128))),
                             shape=(200, n_cols))


@pytest.mark.parametrize("orientation", ["wide", "tall"])
def test_the_norm_path_follows_the_order_cap_and_the_sparse_gram_cost(orientation):
    # the dense eigenvalue runs while min(L, N) <= DENSE_NORM_MAX and the
    # Gram costs less to form than a Lanczos call: always for a G stored
    # dense, up to SPARSE_GRAM_MAX multiply-adds for a sparse one; both
    # paths give the norm to rounding
    orient = (lambda A: A) if orientation == "wide" else (lambda A: A.T)
    cap = gram.DENSE_NORM_MAX
    rng = np.random.default_rng(8)
    at_cost, past_cost = _columns_of_128(1024, 1), _columns_of_128(1025, 2)
    assert 1024 * 128**2 == gram.SPARSE_GRAM_MAX
    cases = {"dense at the cap": (rng.standard_normal((cap, cap + 60)), True),
             "dense past the cap": (rng.standard_normal((cap + 1, cap + 60)), False),
             "sparse at the cost": (at_cost, True),
             "sparse past the cost": (past_cost, False)}
    for name, (A, dense_norm) in cases.items():
        G = GramMatrix(orient(A))
        assert (G.dense is None) == name.startswith("sparse"), name
        assert gram.takes_dense_norm(G) == dense_norm, name
        reference = np.linalg.norm(G.toarray(), 2)
        np.testing.assert_allclose(spectral_norm(G), reference, rtol=1e-13, err_msg=name)


def test_matern_runs_leave_the_kd_tree_unloaded(tmp_path):
    # no run loads scipy.spatial: not a Matern run, not a Wendland run with
    # a raster, whose pairs kernel_blocks screens by inner products
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, numpy as np\n"
            "from sphsplines.gram import kernel_blocks\n"
            "from sphsplines.kernels import wendland_zonal\n"
            "from sphsplines.pipeline import run_reconstruction\n"
            "from sphsplines.sphere import fibonacci_lattice\n"
            "spec = {'kernel': {'family': 'matern', 'beta': 2.5,\n"
            "    'epsilon': 0.3}, 'knots': {'fibonacci': 40},\n"
            "    'sampling': {'synthetic': {'kind': 'scatter', 'bumps': 3}},\n"
            "    'cost': {'kind': 'exact'}, 'solver': {'kind': 'pds'},\n"
            "    'lambda': 1.0, 'max_iter': 20, 'seed': 1,\n"
            "    'outputs': {'directory': sys.argv[1]}}\n"
            "run_reconstruction(spec)\n"
            "before = 'scipy.spatial' in sys.modules\n"
            "spec['kernel'] = {'family': 'wendland', 'k': 1, 'epsilon': 0.3}\n"
            "spec['outputs'] = {'directory': sys.argv[1] + '/w',\n"
            "    'raster': {'n_lat': 6, 'n_lon': 12, 'path': 'r.csv'}}\n"
            "run_reconstruction(spec)\n"
            "knots = fibonacci_lattice(40).points\n"
            "list(kernel_blocks(wendland_zonal(3, 1, 0.3), knots, knots))\n"
            "print(before, 'scipy.spatial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    assert os.path.isfile(tmp_path / "coefficients.csv")
    assert os.path.isfile(tmp_path / "w" / "r.csv")


def test_spectral_norm_keeps_its_value_when_no_float_couples():
    # no float within COUPLING_ULPS above this norm has (1/n)**2 * n**2 == 1
    value = 31.994131434977465
    candidates = [value]
    for _ in range(gram.COUPLING_ULPS):
        candidates.append(float(np.nextafter(candidates[-1], np.inf)))
    assert not any((1.0 / n) * (1.0 / n) * (n * n) == 1.0 for n in candidates)
    G = GramMatrix(np.array([[value]]))
    assert spectral_norm(G) == value
    result = pds_solve(G, LeastSquares(np.array([1.0])),
                       SolverConfig(0.1, eps_stop=1e-300, max_iter=20))
    assert result.iterations == 20 and np.all(np.isfinite(result.x))


# -------------------------------------------------------------- orientations


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_rmatvec_is_bitwise_the_transpose_product(dense):
    A = sparse.random(30, 50, density=0.3, random_state=np.random.default_rng(8),
                      format="csr")
    G = GramMatrix(A.toarray() if dense else A)
    y = np.random.default_rng(9).standard_normal(30)
    assert G.rmatvec(y).tobytes() == (G.matrix.T @ y).tobytes()
    # G^T is a view: no second copy of the entries
    assert np.shares_memory(G.matrix_t.data, G.matrix.data)


def test_gram_keeps_a_dense_copy_where_it_is_no_larger_than_the_csr():
    # 8 L N bytes against the CSR's data, index and pointer arrays: a G
    # with no zeros (a global kernel's) or few keeps the copy, a 0.3-density
    # or Wendland-assembled G does not
    rng = np.random.default_rng(6)
    kept = {"dense": GramMatrix(rng.standard_normal((25, 200))),
            "integer": GramMatrix(rng.integers(-3, 4, (25, 200)))}
    for G in kept.values():
        assert G.dense is not None and G.dense.flags.c_contiguous
        assert G.dense.dtype == np.float64
        assert np.array_equal(G.dense, G.toarray())
        assert np.shares_memory(G.dense_t, G.dense)
    dropped = {
        "0.3-density": GramMatrix(sparse.random(30, 50, density=0.3, random_state=rng)),
        "wendland": assemble_gram(wendland_zonal(3, 1, 0.3),
                                  [DiracFunctional(p) for p in random_directions(300, 7)],
                                  fibonacci_lattice(400)),
    }
    for G in dropped.values():
        assert G.dense is None and G.dense_t is None
    for G in list(kept.values()) + list(dropped.values()):
        csr = G.matrix
        csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert (G.dense is not None) == (8 * G.shape[0] * G.shape[1] <= csr_bytes)


@pytest.mark.parametrize("kind", ["sparse", "dense", "integer"])
def test_products_are_bitwise_the_operator_products(kind):
    # a sparse G's products are its CSR's; a fully dense G's are BLAS
    # products with its dense copy; (n, 1) operands are what svds passes;
    # an integer G is stored as float64, so the kernels see one dtype
    rng = np.random.default_rng(12)
    A = {"sparse": lambda: sparse.random(25, 200, density=0.1, random_state=rng,
                                         format="csr"),
         "dense": lambda: rng.standard_normal((25, 200)),
         "integer": lambda: rng.integers(-3, 4, (25, 200))}[kind]()
    G = GramMatrix(A)
    assert G.matrix.dtype == np.float64
    assert (G.density < 0.2) if kind == "sparse" else (G.density > 0.8)
    operators = (G.matrix.__matmul__, G.matrix.T.__matmul__)
    if kind == "sparse":
        refs = operators
    else:
        refs = (lambda v: np.dot(G.dense, v), lambda v: np.dot(G.dense.T, v))
    x, y = rng.standard_normal(200), rng.standard_normal(25)
    for v, mine, ref, operator in ((x, G.matvec, refs[0], operators[0]),
                                   (y, G.rmatvec, refs[1], operators[1])):
        for operand in (v, v.reshape(-1, 1)):
            got, want = mine(operand), ref(operand)
            assert got.shape == want.shape == (len(want),) + operand.shape[1:]
            assert got.tobytes() == want.tobytes()
            # and, for the dense copy, the operator G itself to rounding
            np.testing.assert_allclose(got, operator(operand), rtol=1e-13, atol=1e-13)


def test_products_check_the_operand_before_the_kernel(monkeypatch):
    # the sparse kernels read their input unchecked, so a bad shape must
    # raise before either is called; a G with a dense copy checks the same
    calls = []
    for name in ("csr_matvec", "csc_matvec"):
        monkeypatch.setattr(_sparsetools, name,
                            lambda *args, name=name: calls.append(name))
    G, D = GramMatrix(np.eye(3, 4)), GramMatrix(np.ones((3, 4)))
    assert G.dense is None and D.dense is not None
    for gram_matrix in (G, D):
        for product, good in ((gram_matrix.matvec, 4), (gram_matrix.rmatvec, 3)):
            for bad in (np.ones(good - 1), np.ones(good + 1), np.ones((good, 2)),
                        np.ones((1, good)), np.ones((good, 1, 1)), np.float64(1.0)):
                with pytest.raises(ValueError, match="does not match"):
                    product(bad)
    assert calls == []
    D.matvec(np.ones(4))
    D.rmatvec(np.ones((3, 1)))
    assert calls == []
    G.matvec(np.ones(4))
    G.rmatvec(np.ones((3, 1)))
    assert calls == ["csr_matvec", "csc_matvec"]


def test_products_build_no_transpose(monkeypatch):
    # G^T is built once, with the GramMatrix; a norm and two solves reuse it
    A = sparse.random(20, 40, density=0.3, random_state=np.random.default_rng(4),
                      format="csr")
    G = GramMatrix(A)
    built = []
    transpose = sparse.csr_matrix.transpose

    def counted(self, *args, **kwargs):
        built.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_matrix, "transpose", counted)
    y = np.random.default_rng(5).standard_normal(20)
    spectral_norm(G)
    config = SolverConfig(0.1, eps_stop=1e-300, max_iter=50)
    assert pds_solve(G, LeastSquares(y), config).iterations == 50
    assert apgd_solve(G, LeastSquares(y), config).iterations == 50
    assert built == []


# ----------------------------------------------------------------- knot gram


def test_knot_gram_single_knot():
    K = knot_gram(matern_zonal(1.5, 0.2), KnotSet(np.array([[0.0, 0.0, 1.0]])))
    np.testing.assert_array_equal(K, [[1.0]])


def test_knot_gram_antipodal_outside_support_is_identity():
    kern = wendland_zonal(3, 1, 0.5)
    knots = KnotSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    np.testing.assert_array_equal(knot_gram(kern, knots), np.eye(2))


def test_knot_gram_positive_definite():
    K = knot_gram(matern_zonal(1.5, 0.1), fibonacci_lattice(200))
    np.testing.assert_allclose(K, K.T)
    np.linalg.cholesky(K)  # raises LinAlgError if not positive definite


def test_knot_gram_duplicate_knots_rejected():
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="duplicate"):
        knot_gram(matern_zonal(1.5, 0.2), pts)


def _full_knot_gram(kernel, knots):
    # the kernel on all of t, symmetrised, as knot_gram ran before it
    # evaluated one triangle
    t = np.clip(knots.points @ knots.points.T, -1.0, 1.0)
    K = np.asarray(kernel(t), dtype=float)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, float(kernel(1.0)))
    return K


KNOT_GRAM_KERNELS = {
    "matern": lambda: matern_zonal(2.5, 0.35, convention="eq60"),
    "wendland": lambda: wendland_zonal(3, 1, 0.3),
    "self_convolved": lambda: ZonalKernel.from_series(
        self_convolve(matern_zonal(2.5, 0.35, convention="eq60").series())),
}


@pytest.mark.parametrize("n", [1, 2, 80, 450])
@pytest.mark.parametrize("name", sorted(KNOT_GRAM_KERNELS))
def test_knot_gram_is_bitwise_the_full_matrix_formula(name, n):
    kernel = KNOT_GRAM_KERNELS[name]()
    knots = fibonacci_lattice(n)
    K = knot_gram(kernel, knots)
    assert K.shape == (n, n)
    assert K.tobytes() == _full_knot_gram(kernel, knots).tobytes()


def test_knot_gram_accepts_series():
    kern = wendland_zonal(3, 1, 0.4)
    conv = self_convolve(kern.series())
    knots = fibonacci_lattice(12)
    K = knot_gram(conv, knots)
    from sphsplines.legendre import resynthesize

    peak = resynthesize(conv, 1.0)
    np.testing.assert_allclose(K.diagonal(), peak)
    np.testing.assert_allclose(K, K.T)
