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

and every solver reads it as integer rows OdeSpec._ladder_row(n, d) =
D d^2 (R, F_val, L)(n/d), D the lcm of the factors' denominators (ladder_at is
their Fraction view); at lambda + m = (p + m q)/q all share the scale D q^2.
On a one-sided branch (R or L identically zero) each iteration adds one
monomial, so the iteration is the two-term band recurrence

    c_(m+-1) = -X(lambda+m) c_m / F_val(lambda+m+-1),

X the one of R, L that is not zero: a walk of O(iterations) steps.  X and F
along the walk are quadratics in m, so four rows set up their values and
differences, and each step advances them by four integer additions
(tabulating a polynomial by differences; Knuth, TAOCP vol. 2, 4.6.4) and
multiplies a reduced integer pair by their ratio with three small gcds.  Only
two-sided specs run the Neumann sweep.  The truncated map is linear, so psi_k
is the partial Neumann sum sum_{i<k} (-Finv (P+ + P-))^i x^lambda, and a
sweep maps only the newest term psi_k - psi_(k-1) through the cached rows at
the shifts next to its support, then adds the in-window part to psi.

The same action makes the operator on {x^0..x^degree} a banded matrix B.
polynomial_solution reads the rows at s = 0..degree, d = 1, once: one
integer table, the block D B, which has B's null space.  That null space
comes from a recurrence on the lowest nonzero band (R, else F, else L): each
row fixes one coefficient by a division, except at the band's zeros, which a
nonzero quadratic has at most two of; so there are at most two free
parameters and O(degree) exact operations.  One-sided specs with pivot band
R or F walk their two-term rows on the series' reduced pairs; other vectors
stay Fraction, since Fraction arithmetic keeps its gcds small against large
where one common denominator would not.  The spectral condition on a8 is a
continuant: the integer characteristic polynomial det(D B + u I) in u = D t,
built by a three-term recurrence in O(degree^2) integer operations, whose
roots u give a8 + u / D.  It is monic, so they are integers, bounded by
Gershgorin's row sums over the table and found by a modular lift past that
bound.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .algebra import OdeSpec, full_operator, require_castable
from .errors import (
    DegenerateDiagonalError,
    NoIndicialRootError,
    ResonantExponentError,
)
from .operators import GeneralizedSeries, RationalLike, as_fraction
from .polynomials import _integer_polynomial_roots, is_rational_square, poly_padded, rational_roots

DEFAULT_HORIZON = 32


class IndicialRoots(NamedTuple):
    """Roots of the indicial equation F(L) = 0, F from OdeSpec.ladder_polys().

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


class SolvabilityVerdict(NamedTuple):
    """reduced_form holds ("ai/aj", value) pairs: the ratios of the exactly
    solvable branch, else those of the QES branch, else none; a value is None
    where its denominator is 0."""

    exactly_solvable: bool
    quasi_exactly_solvable: bool
    trivial_diagonal: bool
    reduced_form: tuple[tuple[str, Fraction | None], ...]
    note: str | None


# the ratios a verdict reports on the exactly solvable and on the QES branch
_EXACT_RATIOS = ("a2/a1", "a5/a1", "a6/a5", "a8/a1")
_QES_RATIOS = ("a1/a0", "a4/a0", "a5/a4", "a7/a0", "a8/a7")


class TerminationResult(NamedTuple):
    """Positive n with P+ x^(n-1) = 0; all_n marks an identically-zero P+."""

    values: tuple[Fraction, ...]
    all_n: bool


class PolynomialSolutionResult(NamedTuple):
    """Null space of the operator on {x^0..x^degree}, plus the spectral report.

    basis holds coefficient tuples (c_0..c_degree).  verified is True when
    full_operator(spec) sends every basis vector exactly to zero, by the
    integer zero test DiffOp.image_support (so also for an empty basis).
    When the basis is empty, spectral_a8 lists the rational values of a8 at
    which the square subsystem determinant vanishes.  Each gives a polynomial
    solution at that a8 when degree is a termination degree, R(degree) = 0;
    otherwise only where it also makes a lower termination degree's block
    singular, and most give none.
    """

    degree: int
    basis: tuple[tuple[Fraction, ...], ...]
    spectral_a8: tuple[Fraction, ...]
    verified: bool


def indicial_roots(spec: OdeSpec) -> IndicialRoots:
    f0, f1, f2 = poly_padded(spec.ladder_polys()[1], 3)
    disc = f1 * f1 - 4 * f2 * f0
    plus = minus = rational_part = None
    if f2 == 0:
        if f1 == 0:
            if f0 == 0:
                raise DegenerateDiagonalError("F is identically zero: every exponent is a root")
            raise NoIndicialRootError("F is the nonzero constant a8; no exponent annihilates it")
        plus = -f0 / f1
    else:
        rational_part = -f1 / (2 * f2)
        square, root = is_rational_square(disc)
        if square:
            plus = rational_part + root / (2 * f2)
            minus = rational_part - root / (2 * f2)
    return IndicialRoots(
        lambda_plus=plus,
        lambda_minus=minus,
        discriminant=disc,
        rational_part=rational_part,
        irrational=plus is None,
        degenerate=(disc == 0),
    )


def check_solvability(spec: OdeSpec) -> SolvabilityVerdict:
    """Exactly solvable iff a0 = a4 = a7 = 0 (no raising part); quasi-exactly
    solvable iff a2 = a6 = 0 (no lowering part).

    The all-diagonal case sets both flags degenerately.  Systems outside both
    gates that still admit a termination level are noted: polynomial solutions
    can exist beyond these conditions.  Requires a3 = 0: a3 D^2 lowers every
    monomial by two, which no ladder split carries.
    """
    require_castable(spec)
    raising, _, lowering = spec.ladder_polys()
    exact = raising == ()
    quasi = lowering == ()
    trivial = exact and quasi

    reduced = []
    for name in _EXACT_RATIOS if exact else _QES_RATIOS if quasi else ():
        num, den = (getattr(spec, a) for a in name.split("/"))
        reduced.append((name, num / den if den != 0 else None))

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
        reduced_form=tuple(reduced),
        note=note,
    )


class SeriesReport(NamedTuple):
    """How the fixed-point iteration of series_solution_with_report ended.

    dropped counts, over the iterations, the coefficients of psi at the window
    edge |m| = horizon that the ladder pushes past it (at most one on a
    one-sided branch).  stationary_at is the first iteration whose new term
    is empty, because the ladder vanished on it or left the window; None when
    the iterations ran out first.
    """

    dropped: int
    stationary_at: int | None


def series_solution_with_report(
    spec: OdeSpec,
    lam: RationalLike,
    iterations: int,
    horizon: int | None = None,
) -> tuple[GeneralizedSeries, SeriesReport]:
    """Fixed-point iteration from the seed x^lam; see the module docstring.

    Requires F_val(lam) = 0, a3 = 0 and nonnegative sizes.  The iteration
    raises ResonantExponentError at the lowest generated shift where
    F_val = 0, checked before the window test, and keeps the part of psi
    inside |m| <= horizon (DEFAULT_HORIZON when None); SeriesReport says how
    it ended.  lam is tested on the integer row of F; F(lam) becomes a
    Fraction only for the error message.  One-sided specs walk one band in
    O(iterations) integer steps, stepping X and F by their differences;
    two-sided ones push the newest Neumann term through the three-term action
    on every iteration.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be nonnegative")
    lam = as_fraction(lam)
    if spec._ladder_row(lam.numerator, lam.denominator)[1]:
        raise ValueError(f"lambda = {lam} is not an indicial root: F({lam}) = {spec.ladder_at(lam)[1]}")
    require_castable(spec)
    window = DEFAULT_HORIZON if horizon is None else horizon
    raising, _, lowering = spec.ladder_polys()
    if raising and lowering:
        psi, report = _neumann_sweep(spec, lam, iterations, window)
    else:
        psi, report = _band_walk(spec, lam, 2 if lowering else 0, iterations, window)
    return GeneralizedSeries._canonical(lam, psi), report


def _band_walk(
    spec: OdeSpec, lam: Fraction | int, band: int, iterations: int, window: int, divide: int = 1
) -> tuple[dict[int, Fraction], SeriesReport]:
    """The two-term walk c_(m+-1) = -X(lam+m) c_m / Y(lam+m+-1), X and Y the
    factors of index band and divide of (R, F, L), upward when X is the lower:
    with Y = F the iteration on a one-sided spec (its ResonantExponentError
    names F), with Y = R or F the null-space walk of _polynomial_nullspace.

    On the rows at lam + m = (p + m q)/q, X at shift m and Y at shift m + step
    are quadratics in m, so the rows at the shifts 0, step, 2 step and 3 step
    give each its value, first difference and constant second difference, and
    a step advances both by four integer additions instead of evaluating a row
    (Knuth, TAOCP vol. 2, 4.6.4).  The set-up rows may reach past the walk's
    end; they are only read, so a zero of Y there raises nothing.

    c_m is carried as a reduced integer pair (num, den), den > 0.  A step
    orients the ratio a/b = -X/Y so that b > 0, divides out gcd(X, Y),
    a gcd of two row-sized integers, and multiplies by Henrici's
    cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1): g1 = gcd(num, b) and
    g2 = gcd(a, den) each pair a big integer with a row-sized one, and
    (num/g1)(a/g2) over (den/g2)(b/g1) is reduced by construction, so no gcd
    of two big integers is ever taken."""
    step = 1 if band < divide else -1
    p, q = lam.numerator, lam.denominator
    r0, r1, r2, r3 = (spec._ladder_row(p + k * step * q, q) for k in range(4))
    # X at shift m and the divisor at shift m + step, each with its two differences
    x, dx, ddx = r0[band], r1[band] - r0[band], r2[band] - 2 * r1[band] + r0[band]
    f, df, ddf = r1[divide], r2[divide] - r1[divide], r3[divide] - 2 * r2[divide] + r1[divide]
    psi = {0: Fraction(1)}
    num, den, m = 1, 1, 0
    for k in range(iterations):
        if not x:
            return psi, SeriesReport(dropped=0, stationary_at=k)
        if not f:
            raise ResonantExponentError(
                f"F vanishes at generated exponent {lam + m + step} (shift {m + step})"
            )
        if abs(m + step) > window:
            return psi, SeriesReport(dropped=1, stationary_at=k)
        m += step
        a, b = (x, -f) if f < 0 else (-x, f)
        g = gcd(a, b)
        a, b = a // g, b // g
        g1, g2 = gcd(num, b), gcd(a, den)
        num, den = (num // g1) * (a // g2), (den // g2) * (b // g1)
        psi[m] = _coprime_fraction(num, den)
        x += dx
        dx += ddx
        f += df
        df += ddf
    return psi, SeriesReport(dropped=0, stationary_at=None)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den without the constructor's gcd; requires den > 0
    and gcd(num, den) = 1.  The constructor would take one gcd of the two
    numbers, which on a long walk are huge and coprime, so its cost grows
    quadratically with their size while the walk's own gcds stay small.
    Fills the two slots of a bare Fraction, as CPython 3.12's private
    Fraction._from_coprime_ints does."""
    c = object.__new__(Fraction)
    c._numerator, c._denominator = num, den
    return c


def _neumann_sweep(
    spec: OdeSpec, lam: Fraction, iterations: int, window: int
) -> tuple[dict[int, Fraction], SeriesReport]:
    """The iteration on a two-sided spec, one pushed Neumann term at a time, on
    integer rows over one scale D q^2 (lam = p/q) that the division by F cancels."""
    p, q = lam.numerator, lam.denominator
    factor = functools.cache(lambda m: spec._ladder_row(p + m * q, q))  # once per shift m
    psi = {0: Fraction(1)}
    term = dict(psi)  # psi_1 - psi_0: the seed itself
    dropped = 0
    stationary_at: int | None = None
    for k in range(iterations):
        # R(lam + window) psi(window) and L(lam - window) psi(-window) leave the window
        dropped += sum(1 for m, side in ((window, 0), (-window, 2))
                       if factor(m)[side] and psi.get(m))
        pushed: dict[int, Fraction] = {}
        for n, c in term.items():
            up, _, down = factor(n)
            pushed[n + 1] = pushed.get(n + 1, 0) + up * c
            pushed[n - 1] = pushed.get(n - 1, 0) + down * c
        term = {}
        for m in sorted(m for m, v in pushed.items() if v):
            f_val = factor(m)[1]
            if f_val == 0:
                raise ResonantExponentError(
                    f"F vanishes at generated exponent {lam + m} (shift {m})"
                )
            if abs(m) <= window:
                term[m] = -pushed[m] / f_val
        if not term:
            stationary_at = k
            break
        for m, c in term.items():
            psi[m] = psi.get(m, 0) + c
    return psi, SeriesReport(dropped=dropped, stationary_at=stationary_at)


def termination_condition(spec: OdeSpec) -> TerminationResult:
    """Rational n > 0 with a0(n-1)(n-2) + a4(n-1) + a7 = 0, i.e. P+ x^(n-1) = 0."""
    raising = spec.ladder_polys()[0]  # R(t), at most quadratic in t = n - 1
    if not raising:
        return TerminationResult(values=(), all_n=True)
    values = tuple(sorted(t + 1 for t in rational_roots(raising) if t + 1 > 0))
    return TerminationResult(values=values, all_n=False)


def _polynomial_nullspace(spec: OdeSpec, table: list[tuple[int, int, int]]) -> list[list[Fraction]]:
    """Reduced-echelon null-space basis of the operator on {x^0..x^degree},
    given the integer table of OdeSpec._ladder_row, table[s] = D (R, F, L)(s).

    Row r of the image reads R(r-1) c_(r-1) + F(r) c_r + L(r+1) c_(r+1), up to
    the factor D, which leaves the null space alone.  The lowest of R, F, L
    that is not identically zero (as a polynomial, from spec.ladder_polys(),
    not at the sampled s) is the pivot band: walking down from
    c_(degree+1) = 0, its row fixes each coefficient by one division.
    At the band's zeros in 0..degree (every column for the zero operator) the
    coefficient is a free parameter.  Any other column c is a pivot column,
    whose band row c + 1 - band holds its band entry below the reach of
    earlier columns.  One downward pass per parameter z gives a vector on
    x^0..x^z whose image vanishes on every pivot column's band row: the pass
    zeroes those of the pivot columns below z, and those of the pivot columns
    above z read only coefficients above z, which are zero, or entries of the
    bands before the pivot band, which vanish identically.  So the image is
    computed only on the other rows of 0..degree+1, the constraint rows.
    They include rows that no free column owns: row 0 under R, rows degree
    and degree+1 under L.  Reducing the images in parameter order against
    the parameters that are not free leaves the reduced-echelon basis.

    Carrying integer numerators over a running denominator would end in one
    gcd of two huge coprime integers per coefficient, quadratic in their size.
    On a one-sided spec whose pivot band is R or F each band row has two
    terms, and _band_walk solves them on reduced integer pairs by
    cross-cancellation, with no such gcd: from c_z = 1 over F / R (L = 0) or
    L / F (R = 0), down to just above the pivot's next zero below z.  Other
    specs' rows add up to three terms, and a sum of reduced pairs is not
    reduced, so their vectors stay Fraction, whose multiply and add reduce
    by gcds of a small factor against a large one.
    """
    degree = len(table) - 1
    band = next((k for k, p in enumerate(spec.ladder_polys()) if p), 0)  # R, else F, else L
    pivot = [factors[band] for factors in table]
    pivot_rows = {c + 1 - band for c in range(degree + 1) if pivot[c]}
    constraint_rows = [r for r in range(degree + 2) if r not in pivot_rows]

    def row(vec: list[Fraction], r: int) -> Fraction | int:
        """Coefficient of x^r in the image of sum vec[s] x^s, D times; the int 0
        when no product is nonzero, else a sum that starts at the first one."""
        total: Fraction | int = 0
        for s in range(max(r - 1, 0), min(r + 2, degree + 1)):
            entry = table[s][s + 1 - r]
            if entry and vec[s]:
                product = vec[s] * entry
                total = total + product if total else product
        return total

    basis: list[list[Fraction]] = []
    reduced: list[tuple[list[Fraction], list[Fraction | int], int]] = []
    # two-term band rows: F c_(c+1) over R with L = 0, L c_(c+1) over F with R = 0
    two_term = band == 1 or (band == 0 and not spec.ladder_polys()[2])
    below = -1  # the free column below z
    for z in (c for c in range(degree + 1) if pivot[c] == 0):
        vec = [Fraction(0)] * (degree + 1)
        if two_term:  # down to just above the free column below, where the pivot vanishes
            for m, c in _band_walk(spec, z, band + 1, z - below - 1, z, band)[0].items():
                vec[z + m] = c
        else:
            vec[z] = Fraction(1)
            for c in range(z - 1, -1, -1):
                if pivot[c]:
                    # the band's row for c is c+1 under R, c under F and c-1 under L
                    total = row(vec, c + 1 - band)
                    if total:
                        vec[c] = total / -pivot[c]
        below = z
        image = [row(vec, r) for r in constraint_rows]
        for p_vec, p_image, lead in reduced:
            scale = image[lead] / p_image[lead]
            vec = [a - scale * b for a, b in zip(vec, p_vec)]
            image = [a - scale * b for a, b in zip(image, p_image)]
        lead = next((i for i, v in enumerate(image) if v), None)
        if lead is None:
            basis.append(vec)
        else:
            reduced.append((vec, image, lead))
    return basis


def _characteristic_polynomial(table: list[tuple[int, int, int]]) -> list[int]:
    """det(D B + u I) as integer coefficients in u, ascending, for the square
    block B on {x^0..x^degree}, given the integer table of OdeSpec._ladder_row,
    table[s] = D (R, F_val, L)(s).

    D B is tridiagonal (D F_val(k) on the diagonal, D R(k-1) below it, D L(k)
    above it), so its leading principal minors obey the continuant recurrence

        P_k(u) = (D F_val(k) + u) P_{k-1}(u) - D^2 R(k-1) L(k) P_{k-2}(u),

    which costs O(degree^2) integer operations.  With u = D t,
    det(D B + u I) = D^(degree+1) det(B + t I), so the roots in u are D times
    those in t, and coefficient c_k of u^k is D^(degree+1-k) times that of t^k.
    It is monic in u, so its rational roots are integers, each minus an
    eigenvalue of the integer matrix D B.  A slice of consecutive rows gives
    the continuant of that diagonal block.
    """
    prev, cur = [1], [table[0][1], 1]
    for k in range(1, len(table)):
        diagonal, couple = table[k][1], table[k - 1][0] * table[k][2]
        nxt = [0, *cur]  # u P_{k-1}
        for i, c in enumerate(cur):
            nxt[i] += diagonal * c
        for i, c in enumerate(prev):
            nxt[i] -= couple * c
        prev, cur = cur, nxt
    return cur


def _blocks(table: list[tuple[int, int, int]]) -> list[list[tuple[int, int, int]]]:
    """The table cut before every row k whose coupling D^2 R(k-1) L(k) is 0.
    There D B is block triangular, so its continuant is the product of the
    blocks' continuants (the recurrence's coupling term vanishes)."""
    cuts = [k for k in range(1, len(table)) if not (table[k - 1][0] and table[k][2])]
    return [table[a:b] for a, b in zip([0, *cuts], [*cuts, len(table)])]


def _gershgorin_bound(block: list[tuple[int, int, int]]) -> int:
    """G with |u| <= G at every root u of the block's continuant: -u is an
    eigenvalue of the block of D B, so it lies in a Gershgorin disc (Golub
    and Van Loan, Matrix Computations, section 7.2), and G is the largest
    row sum |D R(k-1)| + |D F(k)| + |D L(k+1)| inside the block, read off the
    table in O(rows) operations."""
    rows = [(0, 0, 0), *block, (0, 0, 0)]
    return max(abs(rows[k - 1][0]) + abs(rows[k][1]) + abs(rows[k + 1][2])
               for k in range(1, len(rows) - 1))


def _continuant_roots(block: list[tuple[int, int, int]]) -> list[int]:
    """The distinct integer roots u of the block's continuant, every rational
    root of that monic polynomial, ascending: the root finder's numerators
    over the lead 1, past twice the Gershgorin bound."""
    char = _characteristic_polynomial(block)
    return _integer_polynomial_roots(char, 2 * _gershgorin_bound(block))[0]


def polynomial_solution(spec: OdeSpec, degree: int) -> PolynomialSolutionResult:
    """Exact null space of the operator on the monomial basis {x^0..x^degree}.

    R, F and L are read once, as the integer rows D (R, F, L)(s) at
    s = 0..degree (OdeSpec._ladder_row), one table that both the null space
    and the continuant read.  The basis is in reduced-echelon form and comes
    from the pivot-band recurrence (see _polynomial_nullspace): the lowest
    nonzero of R, F, L fixes one coefficient per row, and only its zeros in
    0..degree, at most two for a nonzero operator, leave a free parameter.
    Its vectors are reduced Fractions, walked on reduced integer pairs on
    one-sided specs, never integers over one denominator, whose final
    reduction would be quadratic in their size.  Each basis vector is
    certified by an integer zero test of its exact residual,
    full_operator(spec).image_support, which builds no Fraction; the
    operator is built only when there is a vector to certify.

    When no polynomial solution exists, the rational a8 values that make the
    (degree+1)-square subsystem singular are reported; only when R(degree) = 0
    is each sure to give a polynomial solution at that a8 (see
    PolynomialSolutionResult).  a8 enters that
    tridiagonal block only on the diagonal, so its determinant at a8 + t is,
    up to the factor D^(degree+1), the integer continuant in u = D t, and
    each rational root u is reported as a8 + u / D.  The continuant is monic,
    so those roots are integers.  The table is cut where a coupling
    R(k-1) L(k) vanishes (_blocks); per block, the roots are bounded by
    Gershgorin's row sums and found by the root finder of rational_roots
    past twice that bound (_continuant_roots).  Requires a3 = 0 and a
    nonnegative degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    require_castable(spec)
    table = [spec._ladder_row(s, 1) for s in range(degree + 1)]  # D (R, F, L)(s)
    basis = _polynomial_nullspace(spec, table)
    verified, spectral = True, ()
    if basis:
        op = full_operator(spec)
        verified = not any(op.image_support(GeneralizedSeries._canonical(Fraction(0), dict(enumerate(vec))))
                           for vec in basis)
    else:
        roots = sorted({u for block in _blocks(table) for u in _continuant_roots(block)})
        # det vanishes at a8 = spec.a8 + t with t = u / D, so report the shifted roots
        spectral = tuple(spec.a8 + Fraction(u, spec._ladder_scale) for u in roots)
    return PolynomialSolutionResult(
        degree=degree,
        basis=tuple(tuple(v) for v in basis),
        spectral_a8=spectral,
        verified=verified,
    )
