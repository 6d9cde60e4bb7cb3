"""Indicial analysis, solvability gates, series and polynomial solutions.

The seed exponent lambda of a formal solution x^lambda * (1 + ...) satisfies
F_val(lambda) = a1 lambda(lambda-1) + a5 lambda + a8 = 0.  Solutions are then
grown by the inverse-diagonal fixed-point iteration

    psi_{k+1} = x^lambda - Finv (P+ + P-) psi_k,

where Finv divides the coefficient of x^sigma by F_val(sigma).  P+ pushes
exponents up, P- pushes them down, so on the branch with P- = 0 the series
ascends and on the branch with P+ = 0 it descends; whenever a generated
exponent hits another root of F_val the iteration is resonant and aborts.

The ladder acts on monomials only through the three-term action

    x^s -> R(s) x^(s+1) + F_val(s) x^s + L(s) x^(s-1)

(OdeSpec.raise_factor, f_value, lower_factor), so one iteration is a Jacobi
sweep in which the new coefficient at shift m reads only the old ones at m-1
and m+1.  A sweep recomputes just the neighbours of the shifts the previous
sweep changed, plus the two shifts past the truncation window; on a one-sided
branch that is O(1) shifts, and a whole call is O(iterations) exact
operations rather than O(iterations^2).

The same action makes the operator on {x^0..x^degree} a banded matrix, so
polynomial solutions come from a sparse elimination, and the spectral
condition on a8 is a continuant: a characteristic polynomial built by a
three-term recurrence in O(degree^2) exact operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import OdeSpec, full_operator, require_castable
from .errors import (
    DegenerateDiagonalError,
    NoIndicialRootError,
    ResonantExponentError,
)
from .operators import GeneralizedSeries, RationalLike, as_fraction
from .polynomials import (
    Poly,
    is_rational_square,
    poly,
    poly_add,
    poly_mul,
    poly_scale,
    rational_roots,
)

DEFAULT_HORIZON = 32


@dataclass(frozen=True)
class IndicialRoots:
    """Roots of a1 L^2 + (a5-a1) L + a8 = 0.

    Rational roots are carried directly; irrational ones are reported through
    (discriminant, rational_part) with the irrational flag set.  When a1 = 0
    the single root sits in lambda_plus and lambda_minus is absent.
    """

    lambda_plus: Fraction | None
    lambda_minus: Fraction | None
    discriminant: Fraction
    rational_part: Fraction | None
    irrational: bool
    degenerate: bool


@dataclass(frozen=True)
class SolvabilityVerdict:
    exactly_solvable: bool
    quasi_exactly_solvable: bool
    trivial_diagonal: bool
    reduced_form: dict[str, Fraction | None]
    note: str | None


@dataclass(frozen=True)
class TerminationResult:
    """Positive n with P+ x^(n-1) = 0; all_n marks an identically-zero P+."""

    values: tuple[Fraction, ...]
    all_n: bool


@dataclass(frozen=True)
class PolynomialSolutionResult:
    """Null space of the operator on {x^0..x^degree}, plus the spectral report.

    basis holds coefficient tuples (c_0..c_degree).  When the basis is empty,
    spectral_a8 lists the rational values of a8 at which the square subsystem
    determinant vanishes (the quasi-exact eigenvalue condition).
    """

    degree: int
    basis: tuple[tuple[Fraction, ...], ...]
    spectral_a8: tuple[Fraction, ...]
    verified: bool


def indicial_roots(spec: OdeSpec) -> IndicialRoots:
    a1, a5, a8 = spec.a1, spec.a5, spec.a8
    disc = (a5 - a1) ** 2 - 4 * a1 * a8
    if a1 == 0:
        if a5 == 0:
            if a8 == 0:
                raise DegenerateDiagonalError("F is identically zero: every exponent is a root")
            raise NoIndicialRootError("F is the nonzero constant a8; no exponent annihilates it")
        return IndicialRoots(
            lambda_plus=-a8 / a5,
            lambda_minus=None,
            discriminant=disc,
            rational_part=None,
            irrational=False,
            degenerate=False,
        )
    rational_part = -(a5 - a1) / (2 * a1)
    square, root = is_rational_square(disc)
    if not square:
        return IndicialRoots(
            lambda_plus=None,
            lambda_minus=None,
            discriminant=disc,
            rational_part=rational_part,
            irrational=True,
            degenerate=False,
        )
    return IndicialRoots(
        lambda_plus=rational_part + root / (2 * a1),
        lambda_minus=rational_part - root / (2 * a1),
        discriminant=disc,
        rational_part=rational_part,
        irrational=False,
        degenerate=(disc == 0),
    )


def check_solvability(spec: OdeSpec) -> SolvabilityVerdict:
    """Exactly solvable iff a0 = a4 = a7 = 0 (no raising part); quasi-exactly
    solvable iff a2 = a6 = 0 (no lowering part).

    The all-diagonal case sets both flags degenerately.  Systems outside both
    gates that still admit a termination level are noted: polynomial solutions
    can exist beyond these conditions.
    """
    exact = spec.a0 == 0 and spec.a4 == 0 and spec.a7 == 0
    qes_gate = spec.a2 == 0 and spec.a6 == 0
    trivial = exact and qes_gate
    quasi = qes_gate and (not exact or trivial)

    reduced: dict[str, Fraction | None] = {}
    if exact:
        reduced = {
            "a2/a1": spec.a2 / spec.a1 if spec.a1 != 0 else None,
            "a5/a1": spec.a5 / spec.a1 if spec.a1 != 0 else None,
            "a6/a5": spec.a6 / spec.a5 if spec.a5 != 0 else None,
            "a8/a1": spec.a8 / spec.a1 if spec.a1 != 0 else None,
        }
    elif quasi:
        reduced = {
            "a1/a0": spec.a1 / spec.a0 if spec.a0 != 0 else None,
            "a4/a0": spec.a4 / spec.a0 if spec.a0 != 0 else None,
            "a5/a4": spec.a5 / spec.a4 if spec.a4 != 0 else None,
            "a7/a0": spec.a7 / spec.a0 if spec.a0 != 0 else None,
            "a8/a7": spec.a8 / spec.a7 if spec.a7 != 0 else None,
        }

    note = None
    if trivial:
        note = "trivial diagonal case: no raising or lowering part at all"
    elif not exact and not quasi:
        term = termination_condition(spec)
        if term.all_n or term.values:
            note = "QES outside sl(2) conditions: termination levels exist despite a2/a6 != 0"
    return SolvabilityVerdict(
        exactly_solvable=exact,
        quasi_exactly_solvable=quasi,
        trivial_diagonal=trivial,
        reduced_form=reduced,
        note=note,
    )


def series_solution(
    spec: OdeSpec,
    lam: RationalLike,
    iterations: int,
    horizon: int | None = None,
) -> GeneralizedSeries:
    series, _ = series_solution_with_report(spec, lam, iterations, horizon)
    return series


def series_solution_with_report(
    spec: OdeSpec,
    lam: RationalLike,
    iterations: int,
    horizon: int | None = None,
) -> tuple[GeneralizedSeries, "SeriesReport"]:
    """Fixed-point iteration from the seed x^lam; see the module docstring.

    Requires F_val(lam) = 0, a3 = 0 and nonnegative sizes.  Raises
    ResonantExponentError at the lowest generated shift with a nonzero
    coefficient and F_val = 0.  Shifts outside |m| <= horizon are dropped and
    counted on every iteration; the report's stationary_at is the first
    iteration that changes no coefficient.  Costs O(iterations) exact
    operations on the one-sided branches.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be nonnegative")
    lam = as_fraction(lam)
    if spec.f_value(lam) != 0:
        raise ValueError(f"lambda = {lam} is not an indicial root: F({lam}) = {spec.f_value(lam)}")
    require_castable(spec)
    window = DEFAULT_HORIZON if horizon is None else horizon
    factors: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    def factor(m: int) -> tuple[Fraction, Fraction, Fraction]:
        """(R, F, L) at exponent lam + m, computed once per shift."""
        if m not in factors:
            s = lam + m
            factors[m] = (spec.raise_factor(s), spec.f_value(s), spec.lower_factor(s))
        return factors[m]

    psi = {0: Fraction(1)}
    changed = {0}  # the seed is one sweep from the zero series
    edges = {-window - 1, window + 1}
    dropped = 0
    stationary_at: int | None = None
    for k in range(iterations):
        updates: dict[int, Fraction] = {}
        for m in sorted(edges.union(*({n - 1, n + 1} for n in changed))):
            pushed = Fraction(0)
            if m - 1 in psi:
                pushed += factor(m - 1)[0] * psi[m - 1]
            if m + 1 in psi:
                pushed += factor(m + 1)[2] * psi[m + 1]
            if pushed == 0:
                updates[m] = Fraction(1) if m == 0 else Fraction(0)
                continue
            f_val = factor(m)[1]
            if f_val == 0:
                raise ResonantExponentError(
                    f"F vanishes at generated exponent {lam + m} (shift {m})"
                )
            updates[m] = -pushed / f_val
        dropped += sum(1 for m in edges if updates[m] != 0)
        changed = {
            m for m, c in updates.items()
            if abs(m) <= window and c != psi.get(m, Fraction(0))
        }
        if not changed:
            stationary_at = k
            break
        for m in changed:
            if updates[m] == 0:
                del psi[m]
            else:
                psi[m] = updates[m]
    return GeneralizedSeries(lam, psi), SeriesReport(dropped=dropped, stationary_at=stationary_at)


@dataclass(frozen=True)
class SeriesReport:
    dropped: int
    stationary_at: int | None


def termination_condition(spec: OdeSpec) -> TerminationResult:
    """Rational n > 0 with a0(n-1)(n-2) + a4(n-1) + a7 = 0, i.e. P+ x^(n-1) = 0."""
    a0, a4, a7 = spec.a0, spec.a4, spec.a7
    if a0 == 0 and a4 == 0:
        if a7 == 0:
            return TerminationResult(values=(), all_n=True)
        return TerminationResult(values=(), all_n=False)
    # quadratic in t = n - 1: a0 t^2 + (a4 - a0) t + a7
    roots = rational_roots(poly((a7, a4 - a0, a0)))
    values = tuple(sorted(t + 1 for t in roots if t + 1 > 0))
    return TerminationResult(values=values, all_n=False)


def _operator_matrix(spec: OdeSpec, degree: int) -> list[list[Fraction]]:
    """Exact matrix of f1 D^2 + f2 D + f3 on {x^0..x^degree}; rows x^0..x^(degree+1).

    Column c collects the image of x^c: F_val(c) on row c, the raising factor
    on row c+1, the lowering factor on row c-1 (the lowering factor at 0
    vanishes, so polynomials map to polynomials).
    """
    rows, cols = degree + 2, degree + 1
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for c in range(cols):
        mc = Fraction(c)
        mat[c][c] = spec.f_value(mc)
        mat[c + 1][c] = spec.raise_factor(mc)
        if c > 0:
            mat[c - 1][c] += spec.lower_factor(mc)
    return mat


def _gauss_nullspace(mat: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Null-space basis from the reduced row-echelon form, by Gauss-Jordan
    elimination with exact division.

    Rows are kept as {column: nonzero entry}, so a row operation costs the
    pivot row's nonzeros rather than the width of the matrix; the banded
    operator matrix stays sparse throughout.
    """
    rows = [{c: v for c, v in enumerate(r) if v != 0} for r in mat]
    n_rows, n_cols = len(rows), len(mat[0]) if mat else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        pivot_row = rows[r] = {k: v * inv for k, v in rows[r].items()}
        for i in range(n_rows):
            row = rows[i]
            if i != r and c in row:
                factor = row[c]
                for k, v in pivot_row.items():
                    value = row.get(k, 0) - factor * v
                    if value:
                        row[k] = value
                    else:
                        row.pop(k, None)
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivot_cols):
            vec[pc] = -rows[pr].get(fc, Fraction(0))
        basis.append(vec)
    return basis


def _characteristic_polynomial(spec: OdeSpec, degree: int) -> Poly:
    """det(B + t I) as a polynomial in t, for the square block B on {x^0..x^degree}.

    B is tridiagonal (F_val(k) on the diagonal, R(k-1) below it, L(k) above
    it), so its leading principal minors obey the continuant recurrence

        D_k(t) = (F_val(k) + t) D_{k-1}(t) - R(k-1) L(k) D_{k-2}(t),

    which costs O(degree^2) exact operations.
    """
    prev: Poly = (Fraction(1),)
    cur = poly((spec.f_value(Fraction(0)), 1))
    for k in range(1, degree + 1):
        mk = Fraction(k)
        couple = spec.raise_factor(mk - 1) * spec.lower_factor(mk)
        prev, cur = cur, poly_add(
            poly_mul((spec.f_value(mk), Fraction(1)), cur), poly_scale(prev, -couple)
        )
    return cur


def polynomial_solution(spec: OdeSpec, degree: int) -> PolynomialSolutionResult:
    """Exact null space of the operator on the monomial basis {x^0..x^degree}.

    When no polynomial solution exists, the rational a8 values that make the
    (degree+1)-square subsystem singular are reported.  a8 enters that
    tridiagonal block only on the diagonal, so its determinant at a8 + t is
    the continuant characteristic polynomial in t, whose rational roots are
    found in polynomial time.  Requires a3 = 0 and a nonnegative degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    require_castable(spec)
    mat = _operator_matrix(spec, degree)
    basis = _gauss_nullspace(mat)
    verified = True
    op = full_operator(spec)
    for vec in basis:
        series = GeneralizedSeries(0, {m: c for m, c in enumerate(vec)})
        if not op.apply(series).is_zero():
            verified = False
    spectral: tuple[Fraction, ...] = ()
    if not basis:
        char = _characteristic_polynomial(spec, degree)
        # det vanishes at a8 = spec.a8 + t, so report the shifted roots
        spectral = tuple(spec.a8 + t for t in rational_roots(char))
    return PolynomialSolutionResult(
        degree=degree,
        basis=tuple(tuple(v) for v in basis),
        spectral_a8=spectral,
        verified=verified,
    )
