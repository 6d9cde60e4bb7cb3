"""Exact ladder-operator analysis of Heun-class differential equations.

The package decomposes second-order equations with polynomial coefficients
into raising/diagonal/lowering operators on the monomial basis, verifies the
cubic deformation of their commutator algebra and its Casimir, classifies
exact and quasi-exact solvability, generates series and polynomial solutions
in exact rational arithmetic, and carries the phi^6-kink fluctuation problem
from the transformed equation through its terminating states.

``import heunalg`` loads no submodule.  Each exported name and each
submodule loads on first access (PEP 562), and its value is then kept in the
package namespace, so a CLI call or a script loads only the modules it uses.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "algebra": ("CasimirResult", "DeformationCoeffs", "GeneratorSet", "OdeSpec",
        "brute_force_deformation", "casimir", "casimir_operator", "cast_check",
        "classify_deformation", "build_generators", "deformation_coefficients",
        "fit_diagonal_polynomial", "full_operator", "is_abelian", "poly_of_op", "sl2_generators"),
    "catalog": ("CatalogRow", "HeunParams", "biconfluent_heun_spec", "catalog_rows",
        "confluent_heun_spec", "doubly_confluent_spec", "heun_spec", "jacobi_spec"),
    "errors": ("DegenerateDiagonalError", "DegenerateKinkError", "DiagonalFitError",
        "HeunalgError", "IncompatibleBranchError", "NoIndicialRootError", "NotCastableError",
        "ResonantExponentError", "SingularPointCollisionError", "SpecFileError"),
    "kink": ("GroundStateReport", "KinkAlgebra", "SigmaOde", "kink_algebra",
        "kink_ground_state_check", "kink_heun_reduction", "kink_sigma_ode", "kink_spec",
        "kink_termination", "kink_wavefunction", "kink_zero_mode", "psi_n2_sigma",
        "psi_n3half_sigma", "sigma_of_x", "state_from_factor"),
    "operators": ("DiffOp", "GeneralizedSeries", "OpTerm", "commutator"),
    "polynomials": (),
    "solvability": ("IndicialRoots", "PolynomialSolutionResult", "SeriesReport",
        "SolvabilityVerdict", "TerminationResult", "check_solvability", "indicial_roots",
        "polynomial_solution", "series_solution_with_report", "termination_condition"),
    "specfile": ("parse_rational", "parse_spec_text", "read_spec_file"),
    "verify": ("ResidualReport", "hypergeometric_oracle", "nullspace_oracle", "residual_sigma"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

# a star import binds the submodules as well as the exported names
__all__ = [*_EXPORTS, *_SOURCE]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_SOURCE})
