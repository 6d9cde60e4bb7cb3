"""Constructors for the Heun-class equation family.

Each constructor fills the nine a-coefficients of :class:`OdeSpec` for one
canonical family member.  The multiplied-out canonical Heun equation

    z(z-1)(z-c) f'' + [g(z-1)(z-c) + d z(z-c) + e z(z-1)] f' + (ab z - q) f = 0

gives the generic row; the confluent relatives follow the conventional
parameter sets.  The Jacobi family carries a3 = 1, which breaks the ladder
casting; it is constructed anyway and reported as a documented conflict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import OdeSpec, _FractionRecord, classify_deformation
from .errors import NotCastableError, SingularPointCollisionError
from .operators import RationalLike, as_fraction


class HeunParams(_FractionRecord):
    """Canonical Heun parameters; a_sing is the third finite singular point."""

    _fields = ("gamma", "delta", "eps_h", "a_sing", "alpha", "beta", "q")

    def __init__(self, gamma: RationalLike, delta: RationalLike, eps_h: RationalLike,
                 a_sing: RationalLike, alpha: RationalLike, beta: RationalLike,
                 q: RationalLike) -> None:
        self._store(gamma, delta, eps_h, a_sing, alpha, beta, q)
        if self.a_sing in (0, 1):
            raise SingularPointCollisionError(
                f"third singular point {self.a_sing} collides with 0 or 1"
            )


def heun_spec(h: HeunParams, j: RationalLike = 0) -> OdeSpec:
    """General Heun equation: a0=1, a1=-(c+1), a2=c, a4=g+d+e,
    a5=-[g(c+1)+dc+e], a6=gc, a7=ab, a8=-q with c = a_sing."""
    c = h.a_sing
    return OdeSpec(
        a0=Fraction(1),
        a1=-(c + 1),
        a2=c,
        a3=Fraction(0),
        a4=h.gamma + h.delta + h.eps_h,
        a5=-(h.gamma * (c + 1) + h.delta * c + h.eps_h),
        a6=h.gamma * c,
        a7=h.alpha * h.beta,
        a8=-h.q,
        j=as_fraction(j),
    )


def confluent_heun_spec(
    nu: RationalLike,
    gamma: RationalLike,
    delta: RationalLike,
    alpha: RationalLike,
    sigma: RationalLike,
    j: RationalLike = 0,
) -> OdeSpec:
    nu, gamma, delta, alpha, sigma = map(as_fraction, (nu, gamma, delta, alpha, sigma))
    return OdeSpec(
        a1=Fraction(1),
        a2=Fraction(-1),
        a4=nu,
        a5=gamma + delta - nu,
        a6=-gamma,
        a7=alpha * nu,
        a8=-sigma,
        j=as_fraction(j),
    )


def biconfluent_heun_spec(
    alpha: RationalLike,
    beta: RationalLike,
    gamma: RationalLike,
    delta: RationalLike,
    j: RationalLike = 0,
) -> OdeSpec:
    alpha, beta, gamma, delta = map(as_fraction, (alpha, beta, gamma, delta))
    return OdeSpec(
        a2=Fraction(1),
        a4=Fraction(-2),
        a5=-beta,
        a6=alpha + 1,
        a7=gamma - alpha - 2,
        a8=-(delta + (alpha + 1) * beta) / 2,
        j=as_fraction(j),
    )


def doubly_confluent_spec(
    tau: RationalLike,
    nu: RationalLike,
    alpha: RationalLike,
    q: RationalLike,
    j: RationalLike = 0,
) -> OdeSpec:
    tau, nu, alpha, q = map(as_fraction, (tau, nu, alpha, q))
    return OdeSpec(
        a1=Fraction(1),
        a4=Fraction(-1),
        a5=tau,
        a6=nu,
        a7=-alpha,
        a8=q,
        j=as_fraction(j),
    )


def jacobi_spec(
    n: RationalLike,
    alpha: RationalLike,
    beta: RationalLike,
    j: RationalLike = 0,
) -> OdeSpec:
    """Jacobi family; carries a3 = 1 and therefore cannot be cast to ladder form."""
    n, alpha, beta = map(as_fraction, (n, alpha, beta))
    return OdeSpec(
        a1=Fraction(-1),
        a3=Fraction(1),
        a5=-(alpha + beta + 2),
        a6=beta - alpha,
        a8=n * (n + alpha + beta + 1),
        j=as_fraction(j),
    )


class CatalogRow(NamedTuple):
    name: str
    sample: str
    spec: OdeSpec
    expected_class: str
    computed_class: str | None
    conflict: str | None

    @property
    def matches(self) -> bool | None:
        if self.computed_class is None:
            return None
        return self.computed_class == self.expected_class


# Fixed sample parameters; golden outputs depend on these staying put.
_HEUN_SAMPLE = HeunParams(
    gamma=Fraction(1, 2), delta=Fraction(1, 2), eps_h=Fraction(1, 2),
    a_sing=Fraction(2), alpha=Fraction(1), beta=Fraction(2), q=Fraction(1),
)
_CONFLUENT_SAMPLE = dict(nu=2, gamma=1, delta=1, alpha=1, sigma=0)
_BICONFLUENT_SAMPLE = dict(alpha=1, beta=0, gamma=3, delta=0)
_DOUBLY_SAMPLE = dict(tau=1, nu=1, alpha=1, q=0)
_JACOBI_SAMPLE = dict(n=2, alpha=0, beta=0)


def catalog_rows() -> list[CatalogRow]:
    """The five family members at their documented sample parameters."""
    rows: list[CatalogRow] = []

    def add(name: str, sample: str, spec: OdeSpec, expected: str) -> None:
        try:
            computed = classify_deformation(spec)
            conflict = None
        except NotCastableError as exc:
            computed = None
            conflict = f"casting conflict: {exc}"
        rows.append(CatalogRow(name, sample, spec, expected, computed, conflict))

    add(
        "Heun",
        "gamma=delta=eps=1/2, c=2, alpha=1, beta=2, q=1",
        heun_spec(_HEUN_SAMPLE),
        "cubic",
    )
    add(
        "Confluent Heun",
        "nu=2, gamma=delta=1, alpha=1, sigma=0",
        confluent_heun_spec(**_CONFLUENT_SAMPLE),
        "quadratic",
    )
    add(
        "Bi-Confluent Heun",
        "alpha=1, beta=0, gamma=3, delta=0",
        biconfluent_heun_spec(**_BICONFLUENT_SAMPLE),
        "quadratic",
    )
    add(
        "Doubly Confluent",
        "tau=1, nu=1, alpha=1, q=0",
        doubly_confluent_spec(**_DOUBLY_SAMPLE),
        "linear",
    )
    add(
        "Jacobi",
        "n=2, alpha=beta=0",
        jacobi_spec(**_JACOBI_SAMPLE),
        "cubic",
    )
    return rows
