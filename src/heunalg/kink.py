"""The phi^6-kink fluctuation problem, end to end.

Linearizing the one-dimensional phi^6 model around its kink and changing the
independent variable to the kink profile sigma(x) gives

    (a d^2/dsigma^2 + b d/dsigma + c + nu^2) psi = 0,
    a = (1-sigma^2)^2 (sigma^2 + eps^2),
    b = sigma (1-sigma^2)(1 - 2 eps^2 - 3 sigma^2),
    c = -1 + 2 eps^2 + 6 sigma^2 (2 - eps^2) - 15 sigma^4,
    nu^2 = 4 (1+eps^2) omega^2 / mu^2,

with the profile sigma(x) = sinh(mu x/2) [(eps^2+1)/eps^2 + sinh^2(mu x/2)]^(-1/2).
Substituting zeta = sigma^2 and psi = (1-zeta)^s f(zeta) with
s = sqrt(1 - (omega/mu)^2) turns this into a canonical Heun equation whose
ladder decomposition closes into a cubic deformation independent of eps.

Everything rational is exact; eps enters only through eps^2, which is taken
as the rational input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

from .algebra import (
    OdeSpec,
    DeformationCoeffs,
    deformation_coefficients,
    diagonal_coefficients,
    full_operator,
)
from .catalog import HeunParams, heun_spec
from .errors import DegenerateKinkError, HeunalgError
from .operators import DiffOp, GeneralizedSeries, RationalLike, as_fraction
from .polynomials import Poly, poly

KinkState = Literal["n2", "n3half"]


@dataclass(frozen=True)
class SigmaOde:
    """Polynomial data of the transformed fluctuation equation."""

    eps_sq: Fraction
    a_poly: Poly
    b_poly: Poly
    c_poly: Poly
    nu_sq: Fraction

    def a(self, sigma: float) -> float:
        return _horner(self.a_poly, sigma)

    def b(self, sigma: float) -> float:
        return _horner(self.b_poly, sigma)

    def c(self, sigma: float) -> float:
        return _horner(self.c_poly, sigma)


@dataclass(frozen=True)
class KinkParams:
    """Bound-state bookkeeping: eps^2, mass scale, and the (n, s) level data."""

    eps_sq: Fraction
    mu: Fraction
    s: Fraction
    n: Fraction
    omega_over_mu_sq: Fraction
    nu_sq: Fraction


@dataclass(frozen=True)
class KinkAlgebra:
    """Deformation coefficients of the unit-normalized ladder pair, plus the
    diagonal-part coefficients (n2, n1, n0)."""

    coeffs: DeformationCoeffs
    n2: Fraction
    n1: Fraction
    n0: Fraction


@dataclass(frozen=True)
class GroundStateReport:
    """Exact checks behind the lowest terminating state."""

    annihilates_sqrt: bool
    annihilates_const: bool
    kernel_dimension: int
    full_op_on_const: GeneralizedSeries
    constant_eliminated: bool


def _horner(p: Sequence[Fraction], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def kink_sigma_ode(eps_sq: RationalLike, omega_over_mu_sq: RationalLike) -> SigmaOde:
    e2 = as_fraction(eps_sq)
    w2 = as_fraction(omega_over_mu_sq)
    if e2 <= 0:
        raise DegenerateKinkError("eps^2 must be positive; the singular points merge at 0")
    return SigmaOde(
        eps_sq=e2,
        a_poly=poly((e2, 0, 1 - 2 * e2, 0, e2 - 2, 0, 1)),
        b_poly=poly((0, 1 - 2 * e2, 0, 2 * e2 - 4, 0, 3)),
        c_poly=poly((-1 + 2 * e2, 0, 12 - 6 * e2, 0, -15)),
        nu_sq=4 * (1 + e2) * w2,
    )


def kink_params(eps_sq: RationalLike, mu: RationalLike, n: RationalLike, s: RationalLike) -> KinkParams:
    e2, muf, nf, sf = map(as_fraction, (eps_sq, mu, n, s))
    if e2 <= 0:
        raise DegenerateKinkError("eps^2 must be positive")
    if not 0 <= sf <= 1:
        raise ValueError(f"bound states require 0 <= s <= 1, got s = {sf}")
    w2 = 1 - sf * sf
    return KinkParams(
        eps_sq=e2, mu=muf, s=sf, n=nf,
        omega_over_mu_sq=w2, nu_sq=4 * (1 + e2) * w2,
    )


def kink_heun_reduction(eps_sq: RationalLike, s: RationalLike) -> HeunParams:
    """Heun parameters produced by zeta = sigma^2, psi = (1-zeta)^s f(zeta)."""
    e2 = as_fraction(eps_sq)
    sf = as_fraction(s)
    if e2 <= 0:
        raise DegenerateKinkError("eps^2 must be positive")
    return HeunParams(
        gamma=Fraction(1, 2),
        delta=1 + 2 * sf,
        eps_h=Fraction(1, 2),
        a_sing=-e2,
        alpha=Fraction(-5, 2) - sf,
        beta=Fraction(3, 2) - sf,
        q=-(1 - 2 * e2 - 4 * (1 - sf * sf) * (1 + e2) + 2 * sf * e2) / 4,
    )


def kink_spec(eps_sq: RationalLike, s: RationalLike, j: RationalLike = 0) -> OdeSpec:
    return heun_spec(kink_heun_reduction(eps_sq, s), j=j)


def kink_algebra(eps_sq: RationalLike, s: RationalLike, j: RationalLike = 0) -> KinkAlgebra:
    """Closed-form deformation coefficients of the unit-normalized ladder pair.

    The Heun operator's lowering part carries the overall factor a_sing; with
    the lowering generator rescaled to -(zeta D^2 + gamma D) the commutator
    coefficients lose all eps dependence and alpha1 = 4 identically.  The
    closed form is cross-checked here against the brute-force commutator of
    the actual Heun spec (which is the same cubic scaled by eps^2); any
    mismatch raises.
    """
    e2 = as_fraction(eps_sq)
    jf = as_fraction(j)
    h = kink_heun_reduction(e2, s)
    g, d, e = h.gamma, h.delta, h.eps_h
    ab = h.alpha * h.beta
    edge = 2 * g + d + e - 2
    core = 2 * ab - 3 * g + 2 + (2 * g - 1) * (g + d + e)
    block = DeformationCoeffs(
        alpha1=Fraction(4),
        beta1=3 * edge + 12 * jf,
        gamma1=core + 6 * edge * jf + 12 * jf * jf,
        delta1=ab * g + core * jf + 3 * edge * jf * jf + 4 * jf ** 3,
    )
    spec = heun_spec(h, j=jf)
    raw = deformation_coefficients(spec)
    if raw != block.scale(e2):
        raise HeunalgError(
            "internal consistency failure: closed-form kink algebra does not "
            f"match the commutator of the Heun operator (closed {block}, raw {raw})"
        )
    n0, n1, n2 = diagonal_coefficients(spec)
    return KinkAlgebra(coeffs=block, n2=n2, n1=n1, n0=n0)


def kink_termination() -> tuple[tuple[Fraction, Fraction], ...]:
    """(n, s) pairs with P+ zeta^(n-1) = 0 and a bound-state s.

    Terminating at zeta^(n-1) forces s^2 + (2n-1)s + n^2 - n - 15/4 = 0.  The
    discriminant is 16 for every n, so s = (5-2n)/2 or s = -(3+2n)/2; scanning
    positive integer and half-integer n and keeping 0 < s <= 1 (s = 0 is the
    continuum threshold, not a bound state) leaves exactly two levels.
    """
    pairs = []
    n = Fraction(1, 2)
    while n <= 4:
        for root in ((5 - 2 * n) / 2, -(3 + 2 * n) / 2):
            if 0 < root <= 1:
                pairs.append((n, root))
        n += Fraction(1, 2)
    return tuple(sorted(pairs))


def sigma_of_x(eps_sq: float, mu: float, x: float) -> float:
    """Kink profile sigma(x); odd, monotone, sigma(+-inf) = +-1."""
    if eps_sq <= 0 or mu <= 0:
        raise DegenerateKinkError("eps^2 and mu must be positive")
    big_a = (eps_sq + 1.0) / eps_sq
    sh = math.sinh(mu * x / 2.0)
    return sh / math.sqrt(big_a + sh * sh)


def kink_wavefunction(state: KinkState, eps_sq: float, mu: float, x: float) -> float:
    """Closed-form candidate states attached to the two termination levels.

    n2 (s = 1/2):     (1-zeta)^(1/2) * zeta,  even in x;
    n3half (s = 1):   (1-zeta) * zeta^(1/2),  odd in x;

    with zeta = sigma(x)^2.  Both vanish as |x| -> infinity and depend on
    (mu, x) only through the product mu*x.  See kink_zero_mode for the exact
    nu^2 = 0 eigenfunction of the sigma-equation, which differs from these
    closed forms; the residual checks in numeric-verify quantify the gap.
    """
    if eps_sq <= 0 or mu <= 0:
        raise DegenerateKinkError("eps^2 and mu must be positive")
    big_a = (eps_sq + 1.0) / eps_sq
    sh = math.sinh(mu * x / 2.0)
    denom = big_a + sh * sh
    if state == "n2":
        return math.sqrt(big_a / denom) * (sh * sh / denom)
    if state == "n3half":
        return (big_a / denom) * (sh / math.sqrt(denom))
    raise ValueError(f"unknown state {state!r}; expected 'n2' or 'n3half'")


def psi_n2_sigma(eps_sq: float) -> Callable[[float], float]:
    """The n2 closed form as a function of sigma: (1-sigma^2)^(1/2) sigma^2."""
    del eps_sq  # shape is eps-independent; kept for a uniform signature
    return lambda sigma: math.sqrt(1.0 - sigma * sigma) * sigma * sigma


def psi_n3half_sigma(eps_sq: float) -> Callable[[float], float]:
    """The n3half closed form as a function of sigma: (1-sigma^2) sigma."""
    del eps_sq
    return lambda sigma: (1.0 - sigma * sigma) * sigma


def kink_zero_mode(eps_sq: float) -> Callable[[float], float]:
    """The exact nu^2 = 0 solution sqrt(a) = (1-sigma^2) sqrt(sigma^2+eps^2).

    Translation invariance makes the x-derivative of the kink profile a zero
    mode; in the sigma variable it is sqrt of the leading coefficient, as
    direct substitution shows:  a (sqrt a)'' + (a'/2)(sqrt a)' = (a''/2) sqrt a.
    It is even in x, unlike the n3half closed form above.
    """
    return lambda sigma: (1.0 - sigma * sigma) * math.sqrt(sigma * sigma + eps_sq)


def state_from_factor(
    s: float, factor: Sequence[Fraction], half_step: bool = False
) -> Callable[[float], float]:
    """(1-zeta)^s * sum_k factor[k] zeta^(k or k+1/2) as a function of sigma."""
    coeffs = [float(c) for c in factor]

    def psi(sigma: float) -> float:
        zeta = sigma * sigma
        f = 0.0
        for k, c in enumerate(coeffs):
            f += c * zeta ** (k + 0.5 if half_step else k)
        return (1.0 - zeta) ** s * f

    return psi


def kink_ground_state_check(eps_sq: RationalLike) -> GroundStateReport:
    """Exact operator facts behind the n = 3/2 level.

    The unit-normalized lowering operator zeta D^2 + (1/2) D annihilates both
    zeta^(1/2) and the constant, so its kernel on {1, zeta^(1/2)} is
    two-dimensional; applying the full s = 1 Heun operator to the constant
    leaves a8 + a7 zeta != 0, which eliminates the constant branch.
    """
    e2 = as_fraction(eps_sq)
    lowering = DiffOp([(1, 1, 2), (Fraction(1, 2), 0, 1)])
    on_sqrt = lowering.apply_to_monomial(Fraction(1, 2))
    on_const = lowering.apply_to_monomial(0)
    spec = kink_spec(e2, 1)
    on_const_full = full_operator(spec).apply_to_monomial(0)
    return GroundStateReport(
        annihilates_sqrt=on_sqrt.is_zero(),
        annihilates_const=on_const.is_zero(),
        kernel_dimension=int(on_sqrt.is_zero()) + int(on_const.is_zero()),
        full_op_on_const=on_const_full,
        constant_eliminated=not on_const_full.is_zero(),
    )
