"""Sampling functionals and system-matrix assembly.

A measurement couples the unknown field to the spline expansion through the
rows ``G[l, n] = (functional l applied to psi(<., r_n>))``.  Every functional
is a weighted quadrature rule: a point sample is one node of weight 1, a patch
functional a tensor Gauss rule over its lon/lat rectangle.  So G's entries and
the field values of `spline.evaluate` both come from `kernel_blocks`, the
kernel at (point, knot) pairs.  Each block of points takes its inner
products from one matmul against the knots; a compactly supported kernel
keeps the pairs inside its support, so no spatial index is built.

`GramMatrix` applies G and G^T by dense BLAS products where a dense array of
G is no larger than its CSR arrays, and otherwise by the sparse kernels
scipy's ``@`` ends in, called directly: each product pays for its
arithmetic and one shape check, not for the operator dispatch or for
indexing a matrix with no zeros.  scipy.sparse is imported only where a
sparse array is built or multiplied, so a run whose G is dense (point
samples under a global kernel) never loads it.
"""

import functools
import math

import numpy as np

from .legendre import gauss_legendre
from .pdo import check_compatibility
from .sphere import BLOCK_ENTRIES, KnotSet, check_integer

# `spectral_norm` rounds up by at most this many ulps to a norm n whose
# balanced steps 1/n couple exactly: (1/n)*(1/n)*(n*n) == 1.0
COUPLING_ULPS = 64

# `spectral_norm` takes a dense eigenvalue of the smaller Gram GG^T or G^TG
# up to this order, the largest among the benchmark's workloads (eigvalsh
# takes 8 ms at one BLAS thread), and a Lanczos call above it
DENSE_NORM_MAX = 400

# and only while the Gram costs less to form than a Lanczos call: a G
# stored dense forms it by BLAS, which beats Lanczos at every such order;
# a sparse G by a sparse product, at about 2.5 ns a multiply-add at one
# thread, so up to this many (40 ms, as the import of scipy.sparse.linalg)
SPARSE_GRAM_MAX = 2**24


class DiracFunctional:
    """Point evaluation at a unit direction."""

    kind = "dirac"

    def __init__(self, direction):
        direction = np.asarray(direction, dtype=float).reshape(3)
        if not abs(np.linalg.norm(direction) - 1.0) <= 1e-12:
            raise ValueError("sampling direction must be a unit vector")
        self.direction = direction

    def nodes(self):
        """(directions, weights): the direction itself with weight 1."""
        return self.direction.reshape(1, 3), np.ones(1)

    def __repr__(self):
        return "DiracFunctional(%s)" % np.array_str(self.direction, precision=4)


class PatchFunctional:
    """Integral over a lon/lat rectangle (unnormalised: value = int_B f)."""

    kind = "square_integrable"

    def __init__(self, bounds, quadrature_order=8):
        self.bounds = bounds
        self.quadrature_order = check_integer(
            quadrature_order, "patch quadrature order", 2)

    def nodes(self):
        """(directions, weights) of a Q x Q tensor Gauss rule for int_B.

        The rule runs over the rectangle in the (lon, u = sin lat)
        parametrisation, where the area element is exactly ``du dlon``, so
        it integrates constant kernels exactly.
        """
        b = self.bounds
        rule = gauss_legendre(self.quadrature_order)
        lon, w_lon = rule.mapped(math.radians(b.lon_min), math.radians(b.lon_max))
        u, w_u = rule.mapped(
            math.sin(math.radians(b.lat_min)), math.sin(math.radians(b.lat_max))
        )
        # (lon, u) pairs in row-major order, u varying fastest
        lon_grid, u_grid = np.repeat(lon, u.size), np.tile(u, lon.size)
        rho = np.sqrt(np.clip(1.0 - u_grid**2, 0.0, None))
        dirs = np.column_stack([rho * np.cos(lon_grid), rho * np.sin(lon_grid), u_grid])
        return dirs, np.outer(w_lon, w_u).reshape(-1)

    def __repr__(self):
        return "PatchFunctional(%r, Q=%d)" % (self.bounds, self.quadrature_order)


class GramMatrix:
    """Immutable system matrix in both orientations, with a spectral-norm
    cache.

    G is stored dense where its 8 L N bytes are no more than its CSR's data,
    index and pointer arrays would hold, at the index width scipy picks (a G
    with no zeros, as global kernels give), and sparse otherwise, so G's
    memory is the smaller of the two, whichever form G is given in.
    ``dense`` is then a C-contiguous float64 array of G and ``dense_t`` its
    transpose view, or both are None.  ``matrix`` is G in CSR form and
    ``matrix_t`` is G^T, the CSC view over the same data, index and pointer
    arrays: it costs no memory, gives the bytes of ``matrix.T @ y``, and
    spares every product G^T y the building of a new transpose.  A sparse G
    builds both here; a dense G builds them, and imports scipy.sparse, on
    their first read.  `matvec` and `rmatvec` check the operand's shape,
    then give ``np.dot(dense, x)`` and ``np.dot(dense.T, y)`` for a dense G,
    and otherwise the bytes of ``matrix @ x`` and ``matrix.T @ y``, by the
    same ``csr_matvec`` / ``csc_matvec`` kernel, bound here, into a fresh
    zeroed output.

    Parameters
    ----------
    matrix : scipy sparse or dense array, shape (L, N)
        One row per sampling functional, one column per knot.  Entries must
        be real and finite, and are stored as float64 with -0.0 as 0.0;
        stored zeros are dropped, so ``nnz`` counts values, and column
        indices are kept sorted within each row.
    """

    def __init__(self, matrix):
        if np.iscomplexobj(matrix):
            raise ValueError("Gram entries must be real")
        self.spectral_norm_cache = None
        if hasattr(matrix, "tocsr"):  # scipy sparse arrays have it
            csr = _canonical_csr(matrix)
            self.shape, self.nnz = csr.shape, csr.nnz
            index_bytes = csr.indices.itemsize
        else:
            # one float64 copy, the caller's array stays as given; adding
            # 0.0 turns -0.0 into 0.0, as the CSR's dropped zeros read
            csr, D = None, np.array(matrix, dtype=float, order="C", ndmin=2)
            D += 0.0
            if D.ndim != 2:
                raise ValueError("a Gram matrix has 2 dimensions, not %d" % D.ndim)
            if not np.all(np.isfinite(D)):
                raise ValueError("Gram entries must be finite")
            self.shape, self.nnz = D.shape, int(np.count_nonzero(D))
            # the index width scipy picks for this CSR
            index_bytes = 4 if max(*D.shape, self.nnz) <= np.iinfo(np.int32).max else 8
        if _dense_is_no_larger(*self.shape, self.nnz, index_bytes):
            self.dense = D if csr is None else csr.toarray()
            self.dense_t = self.dense.T
            return
        from scipy.sparse import _sparsetools

        self.matrix = csr if csr is not None else _canonical_csr(D)
        self.matrix_t = self.matrix.T
        self.dense = self.dense_t = None
        self._csr_matvec, self._csc_matvec = _sparsetools.csr_matvec, _sparsetools.csc_matvec

    @functools.cached_property
    def matrix(self):
        return _canonical_csr(self.dense)

    @functools.cached_property
    def matrix_t(self):
        return self.matrix.T

    def matvec(self, x):
        """G x for a real x of shape (N,) or (N, 1); the result has x's ndim."""
        x = _operand(x, self.shape[1])
        if self.dense is not None:
            return np.dot(self.dense, x)
        return _sparse_product(self._csr_matvec, self.matrix, x)

    def rmatvec(self, y):
        """G^T y for a real y of shape (L,) or (L, 1); the result has y's ndim."""
        y = _operand(y, self.shape[0])
        if self.dense_t is not None:
            return np.dot(self.dense_t, y)
        return _sparse_product(self._csc_matvec, self.matrix_t, y)

    def toarray(self):
        return self.matrix.toarray() if self.dense is None else self.dense.copy()

    @property
    def density(self):
        return self.nnz / (self.shape[0] * self.shape[1])

    def __repr__(self):
        return "GramMatrix(%d x %d, %d nonzero)" % (
            self.shape[0], self.shape[1], self.nnz,
        )


def _dense_is_no_larger(L, N, nnz, index_bytes):
    """Whether an L x N G's 8 L N dense bytes are no more than its CSR's:
    nnz values and column indices, and L + 1 row pointers, at
    ``index_bytes`` an index."""
    return 8 * L * N <= (8 + index_bytes) * nnz + index_bytes * (L + 1)


def _canonical_csr(matrix):
    """``matrix`` as a float64 CSR, so the product kernels see one dtype,
    with no stored zeros and sorted column indices; its entries must be
    finite."""
    from scipy import sparse

    csr = sparse.csr_matrix(matrix, dtype=float, copy=True)
    csr.eliminate_zeros()
    csr.sort_indices()
    if csr.nnz and not np.all(np.isfinite(csr.data)):
        raise ValueError("Gram entries must be finite")
    return csr


def _operand(x, n):
    """x as a float array of shape (n,) or (n, 1); any other shape raises
    ValueError, since the sparse kernels read their input unchecked."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) and x.shape != (n, 1):
        raise ValueError("operand of shape %s does not match %d columns" % (x.shape, n))
    return x


def _sparse_product(kernel, A, x):
    """``A @ x`` by the sparsetools ``kernel`` of A's format, for an x that
    `_operand` checked against A's columns."""
    rows, cols = A.shape
    out = np.zeros(rows)
    kernel(rows, cols, A.indptr, A.indices, A.data, x.ravel(), out)
    return out if x.ndim == 1 else out.reshape(rows, 1)


def kernel_blocks(kernel, points, knots):
    """Yield ``(rows, block)``: psi(<p, r>) for the (M, 3) ``points`` in the
    slice ``rows`` against the (N, 3) ``knots``, in blocks of
    ``BLOCK_ENTRIES // N`` rows (at least one), so memory stays bounded in M.

    Every block takes its inner products from one matmul,
    ``t = points[rows] @ knots.T``.  A compactly supported kernel gives the
    CSR block of psi(t) at the pairs with ``t > support_tmin``; any other
    kernel gives the dense block psi(t).
    """
    tmin = kernel.support_tmin
    if tmin is not None:
        from scipy import sparse
    step = max(1, BLOCK_ENTRIES // len(knots))
    for lo in range(0, len(points), step):
        t = points[lo : lo + step] @ knots.T
        rows = slice(lo, lo + len(t))
        if tmin is None:
            yield rows, kernel(t)
            continue
        i, j = np.nonzero(t > tmin)
        yield rows, sparse.csr_matrix((kernel(t[i, j]), (i, j)), shape=t.shape)


def assemble_gram(kernel, functionals, knots):
    """Assemble the L x N system matrix, one row per sampling functional.

    Each functional is a weighted quadrature over its ``nodes()``, so
    ``G = W . Psi``: W is the sparse functional-by-node weight matrix and
    Psi the kernel at (node, knot) pairs from `kernel_blocks`.  For point
    samples under a global kernel W is the identity, and G is Psi itself,
    the stacked dense blocks, with no sparse array built.  Entries with
    ``|value| <= 1e-12`` are omitted.  A row depends on its functional
    alone, not on its position.  The kernel must be smooth enough for the
    functional kinds present, as `pdo.check_compatibility` decides from its
    order beta.  Kernels of unknown smoothness (``beta=None``) skip the
    check.

    Raises
    ------
    ValueError
        If ``functionals`` is empty or the kernel is too rough for a
        functional kind present.
    """
    functionals = list(functionals)
    if not functionals:
        raise ValueError("need at least one sampling functional")
    if kernel.beta is not None:
        for kind in sorted({f.kind for f in functionals}):
            check_compatibility(kernel.beta, kind)
    nodes, weights = zip(*(f.nodes() for f in functionals))
    starts = np.cumsum([0] + [w.size for w in weights])
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    if kernel.support_tmin is None and starts[-1] == len(functionals) and np.all(weights == 1.0):
        # point samples under a global kernel: W = I, and G is the stacked
        # dense blocks, so no sparse array is built
        G = np.concatenate([block for _, block in kernel_blocks(kernel, nodes, knots.points)])
        G[np.abs(G) <= 1e-12] = 0.0
        return GramMatrix(G)
    from scipy import sparse

    W = sparse.csr_matrix((weights, np.arange(starts[-1]), starts),
                          shape=(len(functionals), starts[-1]))
    rows, cols, vals = [], [], []
    for span, block in kernel_blocks(kernel, nodes, knots.points):
        # functionals with nodes in this block; one split across two blocks
        # gets two partial rows, summed when the CSR matrix is built
        first = np.searchsorted(starts, span.start, side="right") - 1
        stop = np.searchsorted(starts, span.stop, side="left")
        part = sparse.coo_matrix(W[first:stop, span] @ block)
        rows.append(part.row + first)
        cols.append(part.col)
        vals.append(part.data)
    G = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(functionals), len(knots)),
    )
    G.data[np.abs(G.data) <= 1e-12] = 0.0
    G.eliminate_zeros()
    return GramMatrix(G)


def spectral_norm(G):
    """Largest singular value of a GramMatrix, rounded up to a coupling float.

    It is 2^e times the norm of A = G 2^-e, with 2^e the power of two just
    above max|G|, so no square under- or overflows at any scale.  When
    `takes_dense_norm` holds, that is the square root of the top
    ``eigvalsh`` eigenvalue of the smaller Gram, A A^T or A^T A, formed by
    BLAS or by a sparse product: a deterministic value, the same on every
    call at a fixed BLAS thread count.  Otherwise it is one Lanczos call on
    A's CSR (ARPACK through ``svds``, which loads scipy.sparse.linalg,
    ``tol=0``, from the fixed start vector of ones);
    on a degenerate spectrum that start vector can be an eigenvector, and
    ARPACK then restarts from its own random state, which other ``svds``
    calls in the process move.  The value then steps up, by at most
    COUPLING_ULPS ulps, to the first float n with
    ``(1/n)*(1/n)*(n*n) == 1.0``, so the balanced steps 1/n sit exactly on
    the convergence boundary; with no such float the value stays.  The
    result is cached on the GramMatrix.

    Raises
    ------
    ValueError
        All-zero matrix, or a norm past the largest float.
    """
    if G.spectral_norm_cache is not None:
        return G.spectral_norm_cache
    if G.nnz == 0:
        raise ValueError("spectral norm of an all-zero matrix")
    e = int(np.frexp(np.max(np.abs(G.matrix.data if G.dense is None else G.dense)))[1])
    if takes_dense_norm(G):
        norm = math.sqrt(max(float(np.linalg.eigvalsh(_smaller_gram(G, e))[-1]), 0.0))
    else:
        from scipy.sparse.linalg import svds

        norm = float(svds(_scaled_csr(G, e), k=1, tol=0, v0=np.ones(min(G.shape)),
                          return_singular_vectors=False)[0])
    try:
        norm = n = math.ldexp(norm, e)
    except OverflowError:
        raise ValueError("spectral norm overflows the largest float") from None
    for _ in range(COUPLING_ULPS + 1):
        if (1.0 / n) * (1.0 / n) * (n * n) == 1.0:
            norm = n
            break
        n = float(np.nextafter(n, np.inf))
    G.spectral_norm_cache = norm
    return norm


def takes_dense_norm(G):
    """Whether `spectral_norm` takes G's norm as a dense eigenvalue: when
    min(L, N) is at most DENSE_NORM_MAX and G is stored dense, or its
    sparse Gram takes at most SPARSE_GRAM_MAX multiply-adds, the sum of
    the squared entry counts of G's columns (L <= N) or rows."""
    L, N = G.shape
    if min(L, N) > DENSE_NORM_MAX:
        return False
    if G.dense is not None:
        return True
    counts = np.bincount(G.matrix.indices, minlength=N) if L <= N else np.diff(G.matrix.indptr)
    return float(np.sum(counts.astype(float) ** 2)) <= SPARSE_GRAM_MAX


def _smaller_gram(G, e):
    """A A^T if L <= N, else A^T A, for A = G times 2^-e, as a dense array:
    by BLAS from a scaled copy of G's dense copy, or by a sparse product of
    a scaled copy of its CSR and the CSC view over that copy's arrays."""
    if G.dense is not None:
        D = np.ldexp(G.dense, -e)
        return np.dot(D, D.T) if G.shape[0] <= G.shape[1] else np.dot(D.T, D)
    from scipy import sparse

    A = _scaled_csr(G, e)
    At = sparse.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape[::-1])
    return (A @ At if G.shape[0] <= G.shape[1] else At @ A).toarray()


def _scaled_csr(G, e):
    """G's CSR times 2^-e, over G's index arrays."""
    from scipy import sparse

    A = G.matrix
    return sparse.csr_matrix((np.ldexp(A.data, -e), A.indices, A.indptr), shape=A.shape)


def knot_gram(kernel, knots):
    """Dense symmetric kernel matrix K[m, n] = psi(<r_m, r_n>) on the knots.

    ``kernel`` is any callable zonal function of t: a ZonalKernel, or a
    LegendreSeries such as a self-convolved kernel, which evaluates by
    resynthesis.  It is evaluated on the strict upper triangle only, which
    is mirrored, and the diagonal is psi(1).  That is exact symmetrisation:
    numpy forms ``P @ P.T`` with one symmetric rank-k update, so the inner
    products are bitwise symmetric.  Strict positive definiteness of the
    zonal family makes K positive definite for pairwise-distinct knots,
    which the KnotSet constructor enforces.
    """
    if not isinstance(knots, KnotSet):
        knots = KnotSet(knots)
    t = np.clip(knots.points @ knots.points.T, -1.0, 1.0)
    upper = np.triu_indices(len(t), 1)
    K = np.empty_like(t)
    K[upper] = K[upper[::-1]] = np.asarray(kernel(t[upper]), dtype=float)
    np.fill_diagonal(K, float(kernel(1.0)))
    return K
