"""Sparse spherical spline recovery from finitely many linear measurements.

Reconstructs continuous fields on the unit 2-sphere by solving generalised
total-variation regularised basis pursuit problems over zonal spline
dictionaries with proximal solvers.
"""

__version__ = "0.1.0"

from .sphere import (  # noqa: F401
    KnotSet,
    PatchBounds,
    direction_from_lonlat,
    equal_angle_patch_grid,
    fibonacci_lattice,
    lonlat_from_direction,
    nodal_width,
)
from .legendre import (  # noqa: F401
    KernelTable,
    LegendreSeries,
    fourier_legendre,
    gauss_legendre,
    legendre_all,
    resynthesize,
    tabulate,
)
from .pdo import (  # noqa: F401
    green_series,
    sobolev_symbol,
)
from .kernels import (  # noqa: F401
    ZonalKernel,
    epsilon_for_fwhm,
    lipschitz_estimate,
    matern_halfinteger,
    matern_zonal,
    self_convolve,
    sobolev_green_zonal,
    wendland_construct,
    wendland_zonal,
)
from .gram import (  # noqa: F401
    DiracFunctional,
    GramMatrix,
    PatchFunctional,
    assemble_gram,
    knot_gram,
    spectral_norm,
)
from .prox import (  # noqa: F401
    KL,
    L1,
    CostModel,
    ExactMatch,
    L2Ball,
    LeastSquares,
    prox_conjugate,
    prox_cost,
    soft_threshold,
)
from .solvers import (  # noqa: F401
    SolverConfig,
    SolverResult,
    apgd_solve,
    pds_solve,
    rkhs_project,
    tikhonov_solve,
)
from .spline import (  # noqa: F401
    SplineField,
    evaluate,
    native_norm,
    sparsity_report,
)
from .pipeline import (  # noqa: F401
    RunConfig,
    add_gaussian_noise,
    export_raster,
    load_coefficients_csv,
    load_patch_counts_csv,
    load_scatter_csv,
    plant_spline,
    poisson_counts,
    random_directions,
    run_lambda_sweep,
    run_reconstruction,
    save_coefficients_csv,
    save_patch_counts_csv,
    save_scatter_csv,
)
