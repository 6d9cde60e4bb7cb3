"""Ladder-operator decomposition of the general Heun-class equation.

A second-order equation

    [f1(x) D^2 + f2(x) D + f3(x)] psi = 0,
    f1 = a0 x^3 + a1 x^2 + a2 x + a3,
    f2 = a4 x^2 + a5 x + a6,
    f3 = a7 x + a8,

with a3 = 0 splits into a raising, a diagonal and a lowering part on the
monomial basis:

    P+ = a0 x^3 D^2 + a4 x^2 D + a7 x        (degree +1)
    F  = a1 x^2 D^2 + a5 x D + a8            (diagonal)
    P0 = x D - j                             (grading, spin label j)
    P- = a2 x D^2 + a6 D                     (degree -1)

The pair (P+, P-) closes into a cubic polynomial of P0,

    [P+, P-] = alpha1 P0^3 + beta1 P0^2 + gamma1 P0 + delta1,

whose coefficients this module computes in closed form and cross-checks by
brute-force normal-ordered commutation.  A Casimir C = P- P+ + g(P0) with
g(n) - g(n-1) = f(n) commutes with all three generators and acts as the
scalar a6*a7.

Every generator maps x^m to a multiple of a monomial, and P0 acts on x^m by
m - j.  The exact polynomial work is therefore done in the monomial shift m,
where eigenvalues are sampled at the small integer nodes m = 0, 1, 2, ...
and the commutator polynomial carries no power of j; one Taylor shift by j
at the end rewrites a result as a polynomial in P0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DiagonalFitError, NotCastableError
from .operators import DiffOp, RationalLike, as_fraction, commutator
from .polynomials import (
    Poly,
    discrete_antidifference,
    poly,
    poly_add,
    poly_eval,
    poly_interpolate,
    poly_shift,
)


@dataclass(frozen=True)
class OdeSpec:
    """Coefficients a0..a8 of the general equation plus the spin label j."""

    a0: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a4: Fraction = Fraction(0)
    a5: Fraction = Fraction(0)
    a6: Fraction = Fraction(0)
    a7: Fraction = Fraction(0)
    a8: Fraction = Fraction(0)
    j: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "j"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    def with_j(self, j: RationalLike) -> "OdeSpec":
        return OdeSpec(
            self.a0, self.a1, self.a2, self.a3, self.a4,
            self.a5, self.a6, self.a7, self.a8, as_fraction(j),
        )

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a0, self.a1, self.a2, self.a3, self.a4,
                self.a5, self.a6, self.a7, self.a8)

    # eigenvalue of F on x^m and ladder factors on monomials
    def f_value(self, sigma: Fraction) -> Fraction:
        return self.a1 * sigma * (sigma - 1) + self.a5 * sigma + self.a8

    def raise_factor(self, sigma: Fraction) -> Fraction:
        """P+ x^sigma = raise_factor(sigma) x^(sigma+1)."""
        return self.a0 * sigma * (sigma - 1) + self.a4 * sigma + self.a7

    def lower_factor(self, sigma: Fraction) -> Fraction:
        """P- x^sigma = lower_factor(sigma) x^(sigma-1)."""
        return self.a2 * sigma * (sigma - 1) + self.a6 * sigma


@dataclass(frozen=True)
class GeneratorSet:
    """The ladder triple plus the diagonal part rewritten as a polynomial in P0."""

    p_plus: DiffOp
    p_zero: DiffOp
    p_minus: DiffOp
    f_of_p0: DiffOp


@dataclass(frozen=True)
class DeformationCoeffs:
    """Cubic commutator polynomial: [P+, P-] = alpha1 P0^3 + beta1 P0^2 + gamma1 P0 + delta1."""

    alpha1: Fraction
    beta1: Fraction
    gamma1: Fraction
    delta1: Fraction

    def as_poly(self) -> Poly:
        return poly((self.delta1, self.gamma1, self.beta1, self.alpha1))

    def scale(self, factor: Fraction) -> "DeformationCoeffs":
        return DeformationCoeffs(
            factor * self.alpha1, factor * self.beta1,
            factor * self.gamma1, factor * self.delta1,
        )


@dataclass(frozen=True)
class CasimirResult:
    """Quartic g with g(n)-g(n-1) = f(n), the scalar C acts by, and the verdict."""

    g_poly: Poly
    scalar: Fraction
    is_scalar: bool


def require_castable(spec: OdeSpec) -> None:
    """Raise NotCastableError unless a3 = 0, which the ladder split needs."""
    if spec.a3 != 0:
        raise NotCastableError(f"casting requires a3 = 0, got a3 = {spec.a3}")


def full_operator(spec: OdeSpec) -> DiffOp:
    """f1 D^2 + f2 D + f3 as a canonical DiffOp (a3 included when present)."""
    return DiffOp(
        [
            (spec.a0, 3, 2), (spec.a1, 2, 2), (spec.a2, 1, 2), (spec.a3, 0, 2),
            (spec.a4, 2, 1), (spec.a5, 1, 1), (spec.a6, 0, 1),
            (spec.a7, 1, 0), (spec.a8, 0, 0),
        ]
    )


def build_generators(spec: OdeSpec) -> GeneratorSet:
    """Split the equation into (P+, P0, P-) and F(P0); requires a3 = 0.

    F is stored via its simplified quadratic form in P0,
        F(P0) = a1 P0^2 + ((2j-1)a1 + a5) P0 + (a1 j^2 - (a1-a5) j + a8),
    which equals a1 x^2 D^2 + a5 x D + a8 identically.
    """
    require_castable(spec)
    p_plus = DiffOp([(spec.a0, 3, 2), (spec.a4, 2, 1), (spec.a7, 1, 0)])
    p_zero = DiffOp([(1, 1, 1), (-spec.j, 0, 0)])
    p_minus = DiffOp([(spec.a2, 1, 2), (spec.a6, 0, 1)])
    f_of_p0 = poly_of_op(poly(diagonal_coefficients(spec)), p_zero)
    return GeneratorSet(p_plus, p_zero, p_minus, f_of_p0)


def diagonal_coefficients(spec: OdeSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(n0, n1, n2) with F(P0) = n2 P0^2 + n1 P0 + n0; zeros are kept."""
    j = spec.j
    return (
        spec.a1 * j * j - (spec.a1 - spec.a5) * j + spec.a8,
        (2 * j - 1) * spec.a1 + spec.a5,
        spec.a1,
    )


def sl2_generators(j: RationalLike) -> GeneratorSet:
    """The undeformed triple J+ = x^2 D - 2j x, J0 = x D - j, J- = D.

    Realized as the ladder split of the spec with a4 = 1, a7 = -2j, a6 = 1;
    the diagonal part is identically zero.
    """
    jf = as_fraction(j)
    return build_generators(OdeSpec(a4=Fraction(1), a7=-2 * jf, a6=Fraction(1), j=jf))


def cast_check(spec: OdeSpec) -> bool:
    """True iff P+ + F(P0) + P- reproduces the original operator exactly."""
    gens = build_generators(spec)
    assembled = gens.p_plus + gens.f_of_p0 + gens.p_minus
    return assembled == full_operator(spec)


def poly_of_op(p: Sequence[Fraction], op: DiffOp) -> DiffOp:
    """Evaluate a polynomial at an operator by Horner composition."""
    result = DiffOp.zero()
    for c in reversed(poly(p)):
        result = result.compose(op) + DiffOp.term(c, 0, 0)
    return result


def _base_commutator_poly(spec: OdeSpec) -> Poly:
    """[P+, P-] acts on x^m by a cubic in m; these are its m-coefficients."""
    a0, a2, a4, a6, a7 = spec.a0, spec.a2, spec.a4, spec.a6, spec.a7
    k3 = -4 * a0 * a2
    k2 = 6 * a0 * a2 - 3 * a2 * a4 - 3 * a0 * a6
    k1 = -2 * a0 * a2 + 3 * a0 * a6 - 2 * a4 * a6 - 2 * a2 * a7 + a2 * a4
    k0 = -a6 * a7
    return poly((k0, k1, k2, k3))


def deformation_coefficients(spec: OdeSpec) -> DeformationCoeffs:
    """Closed-form (alpha1, beta1, gamma1, delta1); the Taylor shift of the
    j-free commutator eigenvalue polynomial by j."""
    require_castable(spec)
    padded = list(_base_commutator_poly(spec)) + [Fraction(0)] * 4
    k0, k1, k2, k3 = padded[:4]
    j = spec.j
    return DeformationCoeffs(
        alpha1=k3,
        beta1=k2 + 3 * j * k3,
        gamma1=k1 + 2 * j * k2 + 3 * j * j * k3,
        delta1=k0 + j * k1 + j * j * k2 + j ** 3 * k3,
    )


def fit_diagonal_polynomial(op: DiffOp, j: RationalLike, max_degree: int) -> Poly:
    """Fit op x^m = p(m - j) x^m by exact interpolation; verify on 2 extra points.

    The eigenvalues are interpolated at the nodes m = 0..max_degree and checked
    at m = max_degree + 1 and + 2; one Taylor shift by j then gives p.
    Raises DiagonalFitError when the operator is not diagonal on the probed
    monomials or when the eigenvalues are not polynomial of the stated degree,
    and ValueError when max_degree is negative.
    Returns the coefficients of p ascending in (m - j).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    jf = as_fraction(j)
    eigenvalues: list[Fraction] = []
    for m in range(max_degree + 3):
        image = op.apply_to_monomial(m)
        off_diag = {e: c for e, c in image.support().items() if e != m}
        if off_diag:
            raise DiagonalFitError(f"operator is not diagonal on x^{m}: {off_diag}")
        eigenvalues.append(image.coefficient_at(m))
    in_m = poly_interpolate([(Fraction(m), eigenvalues[m]) for m in range(max_degree + 1)])
    for m in (max_degree + 1, max_degree + 2):
        if poly_eval(in_m, Fraction(m)) != eigenvalues[m]:
            raise DiagonalFitError(
                f"eigenvalues are not polynomial of degree <= {max_degree}"
            )
    return poly_shift(in_m, jf)


def classify_deformation(spec: OdeSpec) -> str:
    """'cubic' iff alpha1 != 0, else 'quadratic' iff beta1 != 0, else 'linear'.

    alpha1 = -4 a0 a2 carries no j, and when it vanishes beta1 = -3(a2 a4 + a0 a6)
    is j-free too, so the class does not depend on the spin label.
    """
    coeffs = deformation_coefficients(spec)
    if coeffs.alpha1 != 0:
        return "cubic"
    if coeffs.beta1 != 0:
        return "quadratic"
    return "linear"


def is_abelian(spec: OdeSpec) -> bool:
    """[P+, P-] = 0 identically (all four deformation coefficients vanish)."""
    c = deformation_coefficients(spec)
    return c.alpha1 == 0 and c.beta1 == 0 and c.gamma1 == 0 and c.delta1 == 0


def _lowering_raising(spec: OdeSpec, m: int) -> Fraction:
    """Eigenvalue of P- P+ on x^m."""
    return spec.raise_factor(Fraction(m)) * spec.lower_factor(Fraction(m) + 1)


def _casimir_g(spec: OdeSpec) -> Poly:
    """g with g(n) - g(n-1) = f(n), fixed so that C acts on x^0 by a6*a7.

    In the shift m, G(m) = g(m - j) obeys G(m) - G(m-1) = k(m) for the j-free
    commutator polynomial k, so G is k's antidifference in m; its constant is
    fixed at m = 0 and one Taylor shift by j gives g.
    """
    require_castable(spec)
    g_in_m = discrete_antidifference(_base_commutator_poly(spec))
    shift = spec.a6 * spec.a7 - (_lowering_raising(spec, 0) + poly_eval(g_in_m, Fraction(0)))
    return poly_shift(poly_add(g_in_m, (shift,)), spec.j)


def casimir(spec: OdeSpec, m_range: int = 10) -> CasimirResult:
    """Construct C = P- P+ + g(P0) and test scalarness on x^m, m = 0..m_range.

    g is the discrete antidifference of the commutator polynomial, taken in
    the monomial shift m, where that polynomial is free of j, and moved to
    P0 = m - j by one Taylor shift.  Its free additive constant is fixed so
    the scalar equals a6*a7 at m = 0; the returned g, evaluated at m - j, is
    then checked to give the same scalar across the whole monomial range.
    A negative m_range raises ValueError.
    """
    if m_range < 0:
        raise ValueError("m_range must be nonnegative")
    g = _casimir_g(spec)
    values = [
        _lowering_raising(spec, m) + poly_eval(g, Fraction(m) - spec.j)
        for m in range(m_range + 1)
    ]
    is_scalar = all(v == values[0] for v in values)
    return CasimirResult(g_poly=g, scalar=values[0], is_scalar=is_scalar)


def casimir_operator(spec: OdeSpec) -> DiffOp:
    """C = P- o P+ + g(P0) as an exact DiffOp."""
    gens = build_generators(spec)
    return gens.p_minus.compose(gens.p_plus) + poly_of_op(_casimir_g(spec), gens.p_zero)


def brute_force_deformation(spec: OdeSpec) -> DeformationCoeffs:
    """[P+, P-] by normal-ordered commutation, fitted as a cubic in P0.

    Independent of the closed form; the two must agree exactly.
    """
    gens = build_generators(spec)
    fitted = fit_diagonal_polynomial(commutator(gens.p_plus, gens.p_minus), spec.j, 3)
    c = list(fitted) + [Fraction(0)] * (4 - len(fitted))
    return DeformationCoeffs(alpha1=c[3], beta1=c[2], gamma1=c[1], delta1=c[0])
