"""Desk-scale laboratory for dyadic spectral analysis of Dirichlet
Schrodinger operators -Delta + V on masked uniform lattices.

The package builds grids on open boxes and balls in R^n (n <= 3),
assembles the stencil operator, decomposes functions into smooth dyadic
spectral shells, and measures Besov / Sobolev / Lorentz norms together
with a battery of quantitative checks (Bernstein bounds, heat kernel
Gaussian bounds, duality and norm-equivalence constants) that are meant
to stay stable under grid refinement.
"""

# set ahead of the imports: the operator cache keys its entries by it
__version__ = "0.2.0"

from .errors import (
    AssumptionViolated,
    BesovLabError,
    BudgetExceeded,
    CheckFailed,
    ChebyshevToleranceUnmet,
    ComplexPotential,
    ConfigInvalid,
    DenseCapExceeded,
    EmptyDomain,
    GridMismatch,
    IndexConstraintViolated,
    InvalidExponent,
    InvalidSpectrumBounds,
    MissingEigendata,
    NegativeShiftedEigenvalue,
    NegativeSpectrumComponent,
    SolverFailure,
    UnsupportedDimension,
    ZeroEigenvaluePresent,
)
from .geometry import (
    Ball,
    Box,
    DomainSpec,
    Grid,
    GridFunction,
    LatticeSymmetry,
    ball,
    box,
    build_grid,
    interval,
)
from .dyadic import DyadicSystem, build_system, bump_primitive, chi, second_system
from .operators import (
    SpectralOperator,
    assemble_laplacian,
    assemble_schrodinger,
    eigendecompose,
    laplacian_bounds,
    load_operator,
    save_operator,
)
from .potential import (
    KatoReport,
    check_smallness,
    decompose,
    hardy_certificate,
    kato_norm,
    potential_from_expression,
)
from .calculus import (
    OperatorFunction,
    apply_symbol,
    chebyshev_coefficients,
    heat_kernel,
    kernel,
    mixed_opnorm,
    power,
    spectral_coefficients,
    spectral_synthesis,
    suite_symbols,
)
from .norms import (
    RearrangementProfile,
    besov_norm,
    block_lp_norms,
    lorentz_norm,
    rearrangement_profile,
    sobolev_norm,
    test_seminorms,
)
from .config import RunConfig, load_config, make_config
from .verify import (
    CHECKS,
    FunctionFamily,
    Stage,
    VerifyReport,
    build_stage,
    build_stages,
    check_bernstein,
    check_duality,
    check_embeddings,
    check_equivalence_AV_A0,
    check_heat_gaussian,
    check_lifting,
    check_lorentz_bernstein,
    check_partition_independence,
    check_resolution_identity,
    check_subspace_characterization,
)
