"""Floating-point residual checks and independent exact oracles.

Each check avoids one part of the machinery it validates:

- the residual avoids the exact action rule: its derivatives come from
  finite differences of a float function;
- the series oracle avoids the ladder split: it is the two-term recurrence
  read off a0..a8 by direct substitution;
- the null-space oracle avoids OdeSpec._ladder_row, the rows that
  polynomial_solution solves on: it applies full_operator(spec) to each
  monomial and eliminates fraction-free over the integers.  It does not
  avoid DiffOp's action kernel, which apply shares with the image_support
  certificate behind polynomial_solution's verified flag.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebra import OdeSpec, full_operator
from .errors import ResonantExponentError
from .kink import SigmaOde, sigma_of_x
from .operators import GeneralizedSeries, RationalLike, as_fraction
from .polynomials import poly_eval

GUARD_DISTANCE = 1e-3


class ResidualReport(NamedTuple):
    """Residual of (a psi'' + b psi' + (c+nu^2) psi) over a mapped grid."""

    grid: tuple[float, ...]
    max_abs_residual: float
    max_rel_residual: float
    excluded_points: int


def _fd_derivatives(f: Callable[[float], float], x: float, h: float) -> tuple[float, float]:
    """5-point central first and second derivatives, Richardson-extrapolated."""

    def stencil(step: float) -> tuple[float, float]:
        fm2, fm1, f0, fp1, fp2 = (f(x - 2 * step), f(x - step), f(x),
                                  f(x + step), f(x + 2 * step))
        d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * step)
        d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * step * step)
        return d1, d2

    d1h, d2h = stencil(h)
    d1h2, d2h2 = stencil(h / 2)
    return (16 * d1h2 - d1h) / 15, (16 * d2h2 - d2h) / 15


def _float_coeffs(p: Sequence[Fraction]) -> list[float]:
    """p's coefficients as floats, one too large for a float as inf.  At a float
    point, Fraction's arithmetic converts each coefficient to a float before it
    adds, so poly_eval gives the same bits on these copies; a Horner sum with an
    infinite coefficient is inf or nan, so a point that needs one is excluded as
    non-finite."""
    out = []
    for c in p:
        try:
            out.append(float(c))
        except OverflowError:
            out.append(math.inf)
    return out


def residual_sigma(
    ode: SigmaOde,
    psi: Callable[[float], float],
    grid: Sequence[float],
    mu: float = 1.0,
    h: float = 5e-3,
) -> ResidualReport:
    """Evaluate a psi'' + b psi' + (c + nu^2) psi on sigma(grid).

    The x-grid maps strictly inside (-1, 1); points closer than the guard
    distance to sigma = +-1 are excluded and counted, as are non-finite
    evaluations (stencils that poke past +-1 on functions defined only
    inside).  The relative residual is normalized by the largest of the
    three term magnitudes seen anywhere on the kept grid.

    The default step sits at the truncation/roundoff balance point of the
    extrapolated 5-point scheme: the residual floor on a true solution is
    near 1e-10, two decades under the acceptance tolerances used downstream.
    """
    eps_sq = float(ode.eps_sq)
    nu_sq = float(ode.nu_sq)
    a_poly, b_poly, c_poly = (_float_coeffs(p) for p in (ode.a_poly, ode.b_poly, ode.c_poly))
    kept: list[float] = []
    excluded = 0
    residuals: list[float] = []
    scale = 0.0
    for x in grid:
        sigma = sigma_of_x(eps_sq, mu, float(x))
        if 1.0 - abs(sigma) < GUARD_DISTANCE:
            excluded += 1
            continue
        step = h * (abs(sigma) + 1.0)
        try:
            d1, d2 = _fd_derivatives(psi, sigma, step)
            terms = (
                poly_eval(a_poly, sigma) * d2,
                poly_eval(b_poly, sigma) * d1,
                (poly_eval(c_poly, sigma) + nu_sq) * psi(sigma),
            )
            finite = all(isinstance(t, float) and math.isfinite(t) for t in terms)
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            finite = False
        if not finite:
            # stencil poked past a branch point or the value blew up
            excluded += 1
            continue
        kept.append(sigma)
        residuals.append(sum(terms))
        scale = max(scale, *(abs(t) for t in terms))
    max_abs = max((abs(r) for r in residuals), default=0.0)
    return ResidualReport(
        grid=tuple(kept),
        max_abs_residual=max_abs,
        max_rel_residual=max_abs / scale if scale > 0 else max_abs,
        excluded_points=excluded,
    )


def hypergeometric_oracle(spec: OdeSpec, lam: RationalLike, terms: int) -> GeneralizedSeries:
    """Series solution of the no-raising-part branch by direct substitution.

    With a0 = a3 = a4 = a7 = 0 the equation is a1 x^2 psi'' + a2 x psi'' + a5 x psi'
    + a6 psi' + a8 psi = 0.  Substituting sum_k c_k x^(lam+k) and collecting
    x^(lam+k) gives the two-term relation

        c_k * [a1 (lam+k)(lam+k-1) + a5 (lam+k) + a8]
            + c_{k+1} * [a2 (lam+k+1)(lam+k) + a6 (lam+k+1)] = 0.

    The topmost equation (k = 0 with no c_1 above it) forces the bracket on
    c_0 to vanish, i.e. lam must be an indicial root; the series then grows
    downward, c_{k} determined from c_{k+1} by dividing by that same bracket,
    which must stay nonzero (resonance otherwise).  Completely independent of
    the normal-ordered operator machinery.
    """
    if not (spec.a0 == 0 and spec.a3 == 0 and spec.a4 == 0 and spec.a7 == 0):
        raise ValueError("oracle requires the exactly-solvable branch a0 = a3 = a4 = a7 = 0")
    lam = as_fraction(lam)

    def f_bracket(sigma: Fraction) -> Fraction:
        return spec.a1 * sigma * (sigma - 1) + spec.a5 * sigma + spec.a8

    def q_bracket(sigma: Fraction) -> Fraction:
        return spec.a2 * sigma * (sigma - 1) + spec.a6 * sigma

    if f_bracket(lam) != 0:
        raise ValueError(
            f"lambda = {lam} fails the top consistency equation: bracket = {f_bracket(lam)}"
        )
    coeffs: dict[int, Fraction] = {0: Fraction(1)}
    current = Fraction(1)
    for m in range(1, terms):
        numerator = q_bracket(lam - m + 1)
        if numerator == 0:
            break  # recurrence kills the tail: the series truncates
        denominator = f_bracket(lam - m)
        if denominator == 0:
            raise ResonantExponentError(
                f"diagonal bracket vanishes at exponent {lam - m} (shift {-m})"
            )
        current = -current * numerator / denominator
        coeffs[-m] = current
    return GeneralizedSeries(lam, coeffs)


def nullspace_oracle(spec: OdeSpec, degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Polynomial solutions up to the given degree by fraction-free elimination.

    Builds the action matrix by applying the assembled operator to each
    monomial (not from the coefficient formulas), clears denominators, and
    row-reduces over the integers (Bareiss); the back-substituted basis spans
    the same space polynomial_solution must find.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    op = full_operator(spec)
    rows, cols = degree + 2, degree + 1
    mat = [[Fraction(0)] * cols for _ in range(rows)]
    for c in range(cols):
        image = op.apply_to_monomial(c)
        for exponent, value in image.support().items():
            if exponent.denominator != 1:
                raise AssertionError("polynomial input produced a fractional exponent")
            row = int(exponent)
            if row < 0 or row >= rows:
                raise AssertionError("image escaped the expected degree window")
            mat[row][c] = value
    int_rows: list[list[int]] = []
    for row in mat:
        scale = 1
        for v in row:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
        int_rows.append([int(v * scale) for v in row])
    reduced, pivot_cols = _bareiss_echelon(int_rows)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis: list[tuple[Fraction, ...]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[r]
            acc = sum((Fraction(reduced[r][c]) * vec[c] for c in range(pc + 1, cols)),
                      Fraction(0))
            vec[pc] = -acc / reduced[r][pc]
        basis.append(tuple(vec))
    return tuple(basis)


def _bareiss_echelon(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free integer row echelon form; returns (rows, pivot columns)."""
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, n_rows):
            for jcol in range(c + 1, n_cols):
                numer = m[r][c] * m[i][jcol] - m[i][c] * m[r][jcol]
                quot, rem = divmod(numer, prev)
                if rem:
                    raise AssertionError("Bareiss exact division failed")
                m[i][jcol] = quot
            m[i][c] = 0
        prev = m[r][c]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return [m[i] for i in range(r)], pivot_cols
