"""Exact result checks, run after the task clock has stopped.

Every check returns None when the result is right and a one-line reason when
it is not.  Where heunalg has an independent oracle (``hypergeometric_oracle``,
``nullspace_oracle``) the check uses it; otherwise the check substitutes the
result into the equation with formulas written here, from the coefficients
a0..a8, without the package's operator machinery.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import heunalg as h


# -- the equation on monomials, written out independently ---------------------


def monomial_images(a, sigma: Fraction) -> dict[int, Fraction]:
    """Shift -> coefficient of [f1 D^2 + f2 D + f3] x^sigma, relative to sigma."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    d2, d1 = sigma * (sigma - 1), sigma
    return {
        1: a0 * d2 + a4 * d1 + a7,
        0: a1 * d2 + a5 * d1 + a8,
        -1: a2 * d2 + a6 * d1,
        -2: a3 * d2,
    }


def substitute(spec, base: Fraction, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    """Residual of the equation on sum_m coeffs[m] x^(base+m); zero entries dropped."""
    a = spec.coefficients()
    out: dict[int, Fraction] = {}
    for m, c in coeffs.items():
        for shift, factor in monomial_images(a, base + m).items():
            if factor:
                out[m + shift] = out.get(m + shift, Fraction(0)) + c * factor
    return {m: v for m, v in out.items() if v}


def resonant_at_second_step(spec, lam: Fraction) -> bool:
    """Whether the fixed-point iteration from x^lam must hit F = 0.

    Step one divides the images of x^lam at shifts +1 and -1 by F there; step
    two sends both back to shift 0, where F(lam) = 0.  Either division by zero
    is a resonance."""
    a = spec.coefficients()
    up, down = monomial_images(a, lam)[1], monomial_images(a, lam)[-1]
    f_up, f_down = monomial_images(a, lam + 1)[0], monomial_images(a, lam - 1)[0]
    if (up and not f_up) or (down and not f_down):
        return True
    back = Fraction(0)
    if up:
        back += monomial_images(a, lam + 1)[-1] * up / f_up
    if down:
        back += monomial_images(a, lam - 1)[1] * down / f_down
    return back != 0


# -- ladder-algebra -------------------------------------------------------------


def ladder(spec, result) -> str | None:
    closed, brute, cas, cas_op, cast_ok = result
    if closed != brute:
        return f"closed-form deformation {closed} != brute force {brute}"
    if not cas.is_scalar:
        return "Casimir is not scalar"
    if cas.scalar != spec.a6 * spec.a7:
        return f"Casimir scalar {cas.scalar} != a6*a7 = {spec.a6 * spec.a7}"
    if cast_ok is not True:
        return "cast_check is false"
    for m in range(4):
        image: dict[int, Fraction] = {}
        for t in cas_op.terms:
            value = t.coeff * math.prod(Fraction(m - i) for i in range(t.dorder))
            if value:
                key = m + t.xpow - t.dorder
                image[key] = image.get(key, Fraction(0)) + value
        image = {k: v for k, v in image.items() if v}
        expected = {m: cas.scalar} if cas.scalar else {}
        if image != expected:
            return f"Casimir operator on x^{m} gives {image}, expected {expected}"
    return None


# -- series-growth --------------------------------------------------------------


def _series_basics(result, lam: Fraction) -> tuple[dict[int, Fraction], str | None]:
    series, _report = result
    coeffs = dict(series.items())
    if series.base != lam:
        return coeffs, f"series base {series.base} != lambda {lam}"
    if coeffs.get(0) != 1:
        return coeffs, f"seed coefficient {coeffs.get(0)} != 1"
    return coeffs, None


def series_oracle(spec, lam: Fraction, terms: int, result) -> str | None:
    """Exactly-solvable branch: coefficient for coefficient against the oracle."""
    coeffs, reason = _series_basics(result, lam)
    if reason:
        return reason
    oracle = h.hypergeometric_oracle(spec, lam, terms)
    expected = dict(oracle.items())
    if coeffs != expected:
        diff = sorted(set(coeffs.items()) ^ set(expected.items()))[:1]
        return f"series differs from hypergeometric_oracle, first at {diff}"
    return None


def series_substitution(spec, lam: Fraction, result) -> str | None:
    """Residual may be non-zero only beyond the truncation edges."""
    coeffs, reason = _series_basics(result, lam)
    if reason:
        return reason
    low, high = min(coeffs), max(coeffs)
    inside = sorted(m for m in substitute(spec, lam, coeffs) if low <= m <= high)
    if inside:
        return f"residual non-zero inside the series window at shifts {inside[:5]}"
    return None


# -- spectral-degree ------------------------------------------------------------


def _rref(vectors, width: int) -> list[tuple[Fraction, ...]]:
    rows = [list(v) for v in vectors]
    out = []
    col = 0
    while rows and col < width:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        rows = [[a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
        col += 1
    return sorted(tuple(r) for r in out)


def block_determinant(spec, a8: Fraction, degree: int) -> Fraction:
    """Determinant of the equation's square block on {x^0..x^degree} with a8
    replaced; the block is tridiagonal, so it is a continuant."""
    a = list(spec.coefficients())
    a[8] = a8
    prev, cur = Fraction(1), monomial_images(a, Fraction(0))[0]
    for k in range(1, degree + 1):
        couple = monomial_images(a, Fraction(k - 1))[1] * monomial_images(a, Fraction(k))[-1]
        prev, cur = cur, monomial_images(a, Fraction(k))[0] * cur - couple * prev
    return cur


def polynomial(spec, degree: int, result) -> str | None:
    """Basis spans the oracle's null space; each spectral a8 zeroes the block.

    Completeness of the spectral list is not checked: that needs a second
    rational-root finder."""
    if result.degree != degree:
        return f"degree {result.degree} != {degree}"
    if not result.verified:
        return "result reports verified = False"
    oracle = h.nullspace_oracle(spec, degree)
    if _rref(result.basis, degree + 1) != _rref(oracle, degree + 1):
        return "basis span differs from nullspace_oracle"
    for vec in result.basis:
        if substitute(spec, Fraction(0), dict(enumerate(vec))):
            return "basis polynomial does not solve the equation"
    if result.basis and result.spectral_a8:
        return "spectral values reported although a basis exists"
    values = list(result.spectral_a8)
    if values != sorted(set(values)):
        return "spectral values not sorted and distinct"
    for value in values:
        if block_determinant(spec, value, degree) != 0:
            return f"a8 = {value} does not make the block singular"
    return None


# -- cli-session -------------------------------------------------------------------


def _same_float(a, b) -> bool:
    return isinstance(a, float) and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def cli_output(expected: dict, fmt: str, result) -> str | None:
    """Compare one CLI run with results computed in-process before the run."""
    if result.code in (3, 4, 5):
        if result.stdout:
            return "error exit wrote to stdout"
        if fmt == "json":
            try:
                err = json.loads(result.stderr)["error"]
            except (ValueError, KeyError, TypeError):
                return "error exit without a JSON error object"
            if err.get("exit_code") != result.code:
                return "JSON error object carries another exit code"
        return None
    out = result.stdout
    if fmt == "json":
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return _compare_json(expected, payload)
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    want = expected["lines"][fmt]
    if len(lines) != want:
        return f"{len(lines)} {fmt} lines, expected {want}"
    missing = [token for token in expected["tokens"] if token not in out]
    if missing:
        return f"{fmt} output lacks {missing[:3]}"
    return None


def _compare_json(expected: dict, payload: dict) -> str | None:
    for key, want in expected["json"].items():
        got = payload.get(key)
        if isinstance(want, float):
            if not _same_float(got, want):
                return f"{key} = {got!r}, expected {want!r}"
        elif got != want:
            return f"{key} = {str(got)[:80]}, expected {str(want)[:80]}"
    rows = expected.get("float_rows")
    if rows is not None:
        got_rows = payload.get("rows", [])
        if len(got_rows) != len(rows):
            return f"{len(got_rows)} rows, expected {len(rows)}"
        for got, want in zip(got_rows, rows):
            for key, value in want.items():
                if not _same_float(got.get(key), value):
                    return f"row {want} differs: {got}"
    return None
