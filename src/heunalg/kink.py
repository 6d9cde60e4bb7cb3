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
from fractions import Fraction
from typing import Callable, Literal, NamedTuple, Sequence

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
from .polynomials import Poly, poly, poly_eval

KinkState = Literal["n2", "n3half"]


class SigmaOde(NamedTuple):
    """Polynomial data of the transformed fluctuation equation: a, b and c as
    exact coefficient tuples in sigma, evaluated by polynomials.poly_eval."""

    eps_sq: Fraction
    a_poly: Poly
    b_poly: Poly
    c_poly: Poly
    nu_sq: Fraction


class KinkAlgebra(NamedTuple):
    """Deformation coefficients of the unit-normalized ladder pair, plus the
    diagonal-part coefficients (n2, n1, n0)."""

    coeffs: DeformationCoeffs
    n2: Fraction
    n1: Fraction
    n0: Fraction


class GroundStateReport(NamedTuple):
    """Exact checks behind the lowest terminating state."""

    annihilates_sqrt: bool
    annihilates_const: bool
    kernel_dimension: int
    full_op_on_const: GeneralizedSeries
    constant_eliminated: bool


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


def _profile(eps_sq: float, mu: float, x: float) -> tuple[float, float, float]:
    """(sigma, 1 - zeta, zeta) at x, with zeta = sigma^2; finite for every finite x.

    With A = (eps^2+1)/eps^2 and sh = sinh(mu x/2) these are sh/sqrt(A + sh^2),
    A/(A + sh^2) and sh^2/(A + sh^2).  Once A + sh^2 overflows a double
    (|mu x/2| above about 355) they are taken from r = A/sh^2 = 4A exp(-|mu x|),
    exact to double precision there, which underflows to 0 as |x| grows.
    """
    if not (0 < eps_sq < math.inf and 0 < mu < math.inf):
        raise DegenerateKinkError("eps^2 and mu must be positive")
    big_a = (eps_sq + 1.0) / eps_sq
    if big_a == math.inf:
        raise DegenerateKinkError("eps^2 is too small: (eps^2+1)/eps^2 overflows a double")
    half = mu * x / 2.0
    sh = math.sinh(half) if abs(half) < 710.0 else math.inf  # math.sinh overflows above
    denom = big_a + sh * sh
    if denom < math.inf:
        return sh / math.sqrt(denom), big_a / denom, sh * sh / denom
    r = math.exp(math.log(4.0) + math.log(big_a) - 2.0 * abs(half))
    return math.copysign(1.0 / math.sqrt(1.0 + r), half), r / (1.0 + r), 1.0 / (1.0 + r)


def sigma_of_x(eps_sq: float, mu: float, x: float) -> float:
    """Kink profile sigma(x); odd, monotone, sigma(+-inf) = +-1."""
    return _profile(eps_sq, mu, x)[0]


def kink_wavefunction(state: KinkState, eps_sq: float, mu: float, x: float) -> float:
    """Closed-form candidate states attached to the two termination levels.

    n2 (s = 1/2):     (1-zeta)^(1/2) * zeta,  even in x;
    n3half (s = 1):   (1-zeta) * zeta^(1/2),  odd in x;

    with zeta = sigma(x)^2.  Both vanish as |x| -> infinity and depend on
    (mu, x) only through the product mu*x.  See kink_zero_mode for the exact
    nu^2 = 0 eigenfunction of the sigma-equation, which differs from these
    closed forms; heunalg.verify.residual_sigma measures the gap (README,
    "Known limitation").
    """
    sigma, one_minus_zeta, zeta = _profile(eps_sq, mu, x)
    if state == "n2":
        return math.sqrt(one_minus_zeta) * zeta
    if state == "n3half":
        return one_minus_zeta * sigma
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


def state_from_factor(s: float, factor: Sequence[Fraction]) -> Callable[[float], float]:
    """(1-zeta)^s * sum_k factor[k] zeta^k as a function of sigma."""
    coeffs = [float(c) for c in factor]

    def psi(sigma: float) -> float:
        zeta = sigma * sigma
        return (1.0 - zeta) ** s * poly_eval(coeffs, zeta)

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
