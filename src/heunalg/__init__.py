"""Exact ladder-operator analysis of Heun-class differential equations.

The package decomposes second-order equations with polynomial coefficients
into raising/diagonal/lowering operators on the monomial basis, verifies the
cubic deformation of their commutator algebra and its Casimir, classifies
exact and quasi-exact solvability, generates series and polynomial solutions
in exact rational arithmetic, and carries the phi^6-kink fluctuation problem
from the transformed equation through its terminating states.
"""

from .algebra import (
    CasimirResult,
    DeformationCoeffs,
    GeneratorSet,
    OdeSpec,
    brute_force_deformation,
    casimir,
    casimir_operator,
    cast_check,
    classify_deformation,
    build_generators,
    deformation_coefficients,
    fit_diagonal_polynomial,
    full_operator,
    is_abelian,
    poly_of_op,
    sl2_generators,
)
from .catalog import (
    CatalogRow,
    HeunParams,
    biconfluent_heun_spec,
    catalog_rows,
    confluent_heun_spec,
    doubly_confluent_spec,
    heun_spec,
    jacobi_spec,
)
from .errors import (
    DegenerateDiagonalError,
    DegenerateKinkError,
    DiagonalFitError,
    HeunalgError,
    IncompatibleBranchError,
    NoIndicialRootError,
    NotCastableError,
    ResonantExponentError,
    SingularPointCollisionError,
    SpecFileError,
)
from .kink import (
    GroundStateReport,
    KinkAlgebra,
    SigmaOde,
    kink_algebra,
    kink_ground_state_check,
    kink_heun_reduction,
    kink_sigma_ode,
    kink_spec,
    kink_termination,
    kink_wavefunction,
    kink_zero_mode,
    psi_n2_sigma,
    psi_n3half_sigma,
    sigma_of_x,
    state_from_factor,
)
from .operators import (
    DiffOp,
    GeneralizedSeries,
    OpTerm,
    commutator,
)
from .solvability import (
    IndicialRoots,
    PolynomialSolutionResult,
    SeriesReport,
    SolvabilityVerdict,
    TerminationResult,
    check_solvability,
    indicial_roots,
    polynomial_solution,
    series_solution_with_report,
    termination_condition,
)
from .specfile import parse_rational, parse_spec_text, read_spec_file
from .verify import (
    ResidualReport,
    hypergeometric_oracle,
    nullspace_oracle,
    residual_sigma,
)

__version__ = "0.1.0"
