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
where the ladder factors, the commutator polynomial and G(m) = g(m - j) carry
no power of j.  The Casimir identity is checked there, as G(m) - G(m-1)
against the commutator polynomial, and C is built as P- o P+ plus the
diagonal sum c_k x^k D^k over G's Newton coefficients c_k at m = 0, 1, 2, ...;
fit_diagonal_polynomial reads such coefficients back off a diagonal
operator.  One Taylor shift by j rewrites a result as a polynomial in P0.

This polynomial work runs on integer numerators over one denominator per
polynomial, with one Fraction per coefficient a call returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple, Sequence

from .errors import DiagonalFitError, NotCastableError
from .operators import DiffOp, RationalLike, as_fraction, commutator
from .polynomials import (Poly, _integer_shift, _over_lcm, _shift_over, poly, poly_padded,
                          poly_shift)


class _FractionRecord:
    """An immutable value whose fields, named in _fields, hold Fractions.

    == (between instances of one class) and hash read the field values, and
    repr prints them as Name(field=value, ...).  Other instance attributes,
    such as cached_property caches, stay outside all three.
    """

    _fields: tuple[str, ...] = ()

    def _store(self, *values: RationalLike) -> None:
        self.__dict__.update(zip(self._fields, map(as_fraction, values)))

    def _values(self) -> tuple[Fraction, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class OdeSpec(_FractionRecord):
    """Coefficients a0..a8 of the general equation plus the spin label j."""

    _fields = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "j")

    def __init__(self, a0: RationalLike = 0, a1: RationalLike = 0, a2: RationalLike = 0,
                 a3: RationalLike = 0, a4: RationalLike = 0, a5: RationalLike = 0,
                 a6: RationalLike = 0, a7: RationalLike = 0, a8: RationalLike = 0,
                 j: RationalLike = 0) -> None:
        self._store(a0, a1, a2, a3, a4, a5, a6, a7, a8, j)

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a0, self.a1, self.a2, self.a3, self.a4,
                self.a5, self.a6, self.a7, self.a8)

    # the three-term action x^s -> R(s) x^(s+1) + F(s) x^s + L(s) x^(s-1)
    @cached_property
    def _ladder(self) -> tuple[Poly, Poly, Poly]:
        return (
            poly((self.a7, self.a4 - self.a0, self.a0)),
            poly((self.a8, self.a5 - self.a1, self.a1)),
            poly((0, self.a6 - self.a2, self.a2)),
        )

    # R, F and L as (numerators ascending, own denominator); the zero factor
    # is the constant 0.  _casimir_in_m reads them, each over its own denominator
    @cached_property
    def _ladder_integer(self) -> tuple[tuple[list[int], int], ...]:
        return tuple(_over_lcm(p or (0,)) for p in self._ladder)

    @cached_property
    def _ladder_scale(self) -> int:
        """D, the lcm of the denominators of R, F and L."""
        return math.lcm(*(den for _, den in self._ladder_integer))

    # the s^0, s^1, s^2 coefficients of D R, D F and D L, all integers
    @cached_property
    def _ladder_form(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(tuple(c * (self._ladder_scale // den) for c in nums) + (0,) * (3 - len(nums))
                     for nums, den in self._ladder_integer)

    def _ladder_row(self, n: int, d: int) -> tuple[int, int, int]:
        """D d^2 (R, F, L)(n/d), d > 0, three integers: one quadratic form per
        factor over n^2, n d, d^2.  Every solver reads the action through it."""
        nn, nd, dd = n * n, n * d, d * d
        (r0, r1, r2), (f0, f1, f2), (l0, l1, l2) = self._ladder_form
        return r0 * dd + r1 * nd + r2 * nn, f0 * dd + f1 * nd + f2 * nn, l0 * dd + l1 * nd + l2 * nn

    def ladder_polys(self) -> tuple[Poly, Poly, Poly]:
        """(R, F, L) as polynomials in the exponent s, built once per spec."""
        return self._ladder

    def ladder_at(self, s: Fraction | int) -> tuple[Fraction, Fraction, Fraction]:
        """(R(s), F(s), L(s)), the three factors of the action on x^s: the
        integer row _ladder_row at s's numerator and denominator, over its
        scale D d^2, as one Fraction per factor."""
        n, d = s.numerator, s.denominator
        r, f, l = self._ladder_row(n, d)
        scale = self._ladder_scale * d * d
        return Fraction(r, scale), Fraction(f, scale), Fraction(l, scale)


class GeneratorSet(NamedTuple):
    """The generator triple (P+, P0, P-) of the deformed algebra."""

    p_plus: DiffOp
    p_zero: DiffOp
    p_minus: DiffOp


class DeformationCoeffs(NamedTuple):
    """Cubic commutator polynomial: [P+, P-] = alpha1 P0^3 + beta1 P0^2 + gamma1 P0 + delta1."""

    alpha1: Fraction
    beta1: Fraction
    gamma1: Fraction
    delta1: Fraction

    def as_poly(self) -> Poly:
        return poly((self.delta1, self.gamma1, self.beta1, self.alpha1))

    @staticmethod
    def from_poly(p: Sequence[Fraction]) -> "DeformationCoeffs":
        """The inverse of as_poly, for a polynomial of degree at most 3."""
        delta1, gamma1, beta1, alpha1 = poly_padded(p, 4)
        return DeformationCoeffs(alpha1, beta1, gamma1, delta1)

    def scale(self, factor: Fraction) -> "DeformationCoeffs":
        return DeformationCoeffs(
            factor * self.alpha1, factor * self.beta1,
            factor * self.gamma1, factor * self.delta1,
        )


class CasimirResult(NamedTuple):
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
    return DiffOp._canonical({
        (2, 3): spec.a0, (2, 2): spec.a1, (2, 1): spec.a2, (2, 0): spec.a3,
        (1, 2): spec.a4, (1, 1): spec.a5, (1, 0): spec.a6,
        (0, 1): spec.a7, (0, 0): spec.a8,
    })


def build_generators(spec: OdeSpec) -> GeneratorSet:
    """The generator triple (P+, P0 = x D - j, P-); requires a3 = 0.

    The diagonal part F is not a generator; cast_check builds it as F(P0).
    """
    require_castable(spec)
    # the spec's coefficients are Fractions already, so skip DiffOp's validation
    p_plus = DiffOp._canonical({(2, 3): spec.a0, (1, 2): spec.a4, (0, 1): spec.a7})
    p_zero = DiffOp._canonical({(1, 1): Fraction(1), (0, 0): -spec.j})
    p_minus = DiffOp._canonical({(2, 1): spec.a2, (1, 0): spec.a6})
    return GeneratorSet(p_plus, p_zero, p_minus)


def diagonal_coefficients(spec: OdeSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(n0, n1, n2) with F(P0) = n2 P0^2 + n1 P0 + n0; zeros are kept."""
    return poly_padded(poly_shift(spec.ladder_polys()[1], spec.j), 3)


def sl2_generators(j: RationalLike) -> GeneratorSet:
    """The undeformed triple J+ = x^2 D - 2j x, J0 = x D - j, J- = D.

    Realized as the ladder split of the spec with a4 = 1, a7 = -2j, a6 = 1;
    the diagonal part is identically zero.
    """
    jf = as_fraction(j)
    return build_generators(OdeSpec(a4=Fraction(1), a7=-2 * jf, a6=Fraction(1), j=jf))


def cast_check(spec: OdeSpec) -> bool:
    """True iff P+ + F(P0) + P- reproduces the original operator exactly.

    F(P0) is the diagonal part as a quadratic polynomial in P0,
        F(P0) = a1 P0^2 + ((2j-1)a1 + a5) P0 + (a1 j^2 - (a1-a5) j + a8),
    composed out of P0 here; it equals a1 x^2 D^2 + a5 x D + a8 identically.
    """
    gens = build_generators(spec)
    f_of_p0 = poly_of_op(diagonal_coefficients(spec), gens.p_zero)
    return gens.p_plus + f_of_p0 + gens.p_minus == full_operator(spec)


def poly_of_op(p: Sequence[Fraction], op: DiffOp) -> DiffOp:
    """Evaluate a polynomial at an operator by Horner composition; the steps run
    on DiffOp's integer pairs, and only the result makes Fractions."""
    return op._polynomial_of(poly(p))


def _base_commutator_poly(spec: OdeSpec) -> tuple[list[int], int]:
    """[P+, P-] acts on x^m by a cubic in m; its m-coefficients, ascending, as
    integer numerators over the product of P+'s and P-'s common denominators."""
    (a0, a4, a7), plus = _over_lcm((spec.a0, spec.a4, spec.a7))
    (a2, a6), minus = _over_lcm((spec.a2, spec.a6))
    k3 = -4 * a0 * a2
    k2 = 6 * a0 * a2 - 3 * a2 * a4 - 3 * a0 * a6
    k1 = -2 * a0 * a2 + 3 * a0 * a6 - 2 * a4 * a6 - 2 * a2 * a7 + a2 * a4
    k0 = -a6 * a7
    return [k0, k1, k2, k3], plus * minus


def deformation_coefficients(spec: OdeSpec) -> DeformationCoeffs:
    """Closed-form (alpha1, beta1, gamma1, delta1); the Taylor shift of the
    j-free commutator eigenvalue polynomial by j."""
    require_castable(spec)
    return DeformationCoeffs.from_poly(_shift_over(*_base_commutator_poly(spec), spec.j))


def fit_diagonal_polynomial(op: DiffOp, j: RationalLike, max_degree: int) -> Poly:
    """Read p with op x^m = p(m - j) x^m off the terms of a diagonal operator.

    op is diagonal exactly when every term is c_k x^k D^k, and that term sends
    x^m to c_k m(m-1)...(m-k+1) x^m: the c_k are the Newton coefficients of the
    eigenvalue polynomial at the nodes m = 0, 1, 2, ..., whose degree is the
    highest such k.  One Taylor shift by j then gives p.
    Raises DiagonalFitError when the operator is not diagonal (naming the first
    x^m it moves) or when the eigenvalues are not polynomial of degree
    <= max_degree, and ValueError when max_degree is negative.
    Returns the coefficients of p ascending in (m - j).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    jf = as_fraction(j)
    terms = op.terms
    if any(t.xpow != t.dorder for t in terms):
        # Off the diagonal, op moves x^m by polynomials in m of degree <= K (the
        # highest derivative order), not all zero, so it moves one of x^0..x^K.
        for m in range(terms[-1].dorder + 1):
            image = op.apply_to_monomial(m)
            off_diag = {e: c for e, c in image.support().items() if e != m}
            if off_diag:
                raise DiagonalFitError(f"operator is not diagonal on x^{m}: {off_diag}")
    newton = {t.dorder: t.coeff for t in terms}
    degree = max(newton, default=-1)
    if degree > max_degree:
        raise DiagonalFitError(f"eigenvalues are not polynomial of degree <= {max_degree}")
    newton_nums, den = _over_lcm([newton.get(k, 0) for k in range(degree + 1)])
    in_m: list[int] = []  # numerators over den
    for k in range(degree, -1, -1):  # in_m = in_m * (m - k) + c_k
        in_m = [newton_nums[k]] + in_m
        for i in range(len(in_m) - 1):
            in_m[i] -= k * in_m[i + 1]
    return _shift_over(in_m, den, jf)


def _deformation_class(coeffs: DeformationCoeffs) -> tuple[str, bool]:
    """(class, abelian): 'cubic' iff alpha1 != 0, else 'quadratic' iff beta1 != 0,
    else 'linear'; abelian iff [P+, P-] = 0, all four coefficients zero.

    alpha1 = -4 a0 a2 carries no j, and when it vanishes beta1 = -3(a2 a4 + a0 a6)
    is j-free too, so the class does not depend on the spin label.
    """
    kind = "cubic" if coeffs.alpha1 else "quadratic" if coeffs.beta1 else "linear"
    return kind, not coeffs.as_poly()


def classify_deformation(spec: OdeSpec) -> str:
    """The class of [P+, P-]: 'cubic', 'quadratic' or 'linear' (_deformation_class)."""
    return _deformation_class(deformation_coefficients(spec))[0]


def is_abelian(spec: OdeSpec) -> bool:
    """[P+, P-] = 0 identically (all four deformation coefficients vanish)."""
    return _deformation_class(deformation_coefficients(spec))[1]


def _casimir_in_m(spec: OdeSpec) -> tuple[list[int], int]:
    """G(m) = a6 a7 - R(m) L(m+1), the eigenvalue of g(P0) on x^m, ascending,
    as integer numerators over the product of R's and L's denominators.

    P- P+ acts on x^m by R(m) L(m+1), so C = P- P+ + g(P0) acts on every x^m
    by a6*a7 when g(m - j) = G(m).  a6 a7 = R(0) L(1) is the product's
    constant term, so G has none.
    """
    require_castable(spec)
    (raising, r_den), _, (l_nums, l_den) = spec._ladder_integer
    lowering = _integer_shift(l_nums, 1)
    g_in_m = [0] * (len(raising) + len(lowering) - 1)
    for i, a in enumerate(raising):
        for k, b in enumerate(lowering):
            g_in_m[i + k] -= a * b
    g_in_m[0] = 0
    return g_in_m, r_den * l_den


def _diagonal_operator(nums: Sequence[int], den: int) -> DiffOp:
    """sum c_k x^k D^k, acting on every x^m by p(m) = sum nums_n m^n / den,
    which fit_diagonal_polynomial reads back; m^n = sum_k S(n, k)
    m(m-1)...(m-k+1), with S the Stirling numbers of the second kind, gives the
    Newton coefficients c_k, one Fraction each."""
    newton, stirling = [0] * len(nums), [1]  # S(n, 0..n)
    for c in nums:
        for k, s in enumerate(stirling):
            newton[k] += c * s
        stirling = [k * s + t for k, (s, t) in enumerate(zip(stirling + [0], [0] + stirling))]
    return DiffOp._canonical({(k, k): Fraction(c, den) for k, c in enumerate(newton) if c})


def casimir(spec: OdeSpec, m_range: int = 10) -> CasimirResult:
    """Construct C = P- P+ + g(P0) and certify that it is a scalar on every x^m.

    g_poly is the Taylor shift by j of G(m) = g(m - j) (see _casimir_in_m), so
    C acts on every x^m by scalar = a6*a7.  C commutes with the generators
    exactly when g(n) - g(n-1) is the commutator polynomial f(n); the shift by
    j commutes with the backward difference, so is_scalar, the certificate,
    checks G(m) - G(m-1) against the j-free commutator polynomial in m, an
    identity that compares the product of the ladder factors with the closed
    form.  m_range no longer changes the result; a negative m_range raises
    ValueError.
    """
    if m_range < 0:
        raise ValueError("m_range must be nonnegative")
    g_in_m, g_den = _casimir_in_m(spec)
    commutator_in_m, c_den = _base_commutator_poly(spec)
    difference = [g - h for g, h in zip(g_in_m, _integer_shift(g_in_m, -1))]
    is_scalar = all(d * c_den == c * g_den  # difference / g_den == commutator / c_den
                    for d, c in zip_longest(difference, commutator_in_m, fillvalue=0))
    return CasimirResult(_shift_over(g_in_m, g_den, spec.j), spec.a6 * spec.a7, is_scalar)


def casimir_operator(spec: OdeSpec) -> DiffOp:
    """C = P- o P+ + g(P0) as an exact DiffOp; g(P0) is diagonal with eigenvalue
    G(m) on x^m, so it is sum c_k x^k D^k over G's Newton coefficients."""
    gens = build_generators(spec)
    return gens.p_minus.compose(gens.p_plus) + _diagonal_operator(*_casimir_in_m(spec))


def brute_force_deformation(spec: OdeSpec) -> DeformationCoeffs:
    """[P+, P-] by normal-ordered commutation, fitted as a cubic in P0.

    Independent of the closed form; the two must agree exactly.
    """
    gens = build_generators(spec)
    fitted = fit_diagonal_polynomial(commutator(gens.p_plus, gens.p_minus), spec.j, 3)
    return DeformationCoeffs.from_poly(fitted)
