"""Small exact univariate polynomial toolbox over Fraction.

Polynomials are tuples of Fractions in ascending degree order with no trailing
zeros; () is the zero polynomial.  Just enough machinery for interpolation
(Newton form), Taylor shifts, rational roots and discrete antidifferences;
nothing here rounds.  Rational roots are isolated by Sturm bisection over the
integers, so their cost is polynomial in the degree and the coefficient
bit-length rather than in the size of the constant term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable[Fraction | int]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_scale(p: Sequence[Fraction], factor: Fraction) -> Poly:
    return poly(factor * c for c in p)


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def poly_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """The polynomial of degree < len(points) through distinct abscissae, exact.

    Newton divided differences, expanded to the monomial basis by Horner's
    rule: O(n^2) exact operations.  Repeated abscissae raise ZeroDivisionError.
    """
    xs = [Fraction(x) for x, _ in points]
    diffs = [Fraction(y) for _, y in points]
    for k in range(1, len(xs)):  # diffs[i] becomes f[x_{i-k}, ..., x_i]
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    out: list[Fraction] = []
    for k in range(len(xs) - 1, -1, -1):  # out = out * (t - x_k) + diffs[k]
        out = [Fraction(0)] + out
        for i in range(len(out) - 1):
            out[i] -= xs[k] * out[i + 1]
        out[0] += diffs[k]
    return poly(out)


def poly_shift(p: Sequence[Fraction], h: Fraction) -> Poly:
    """Coefficients of p(t + h), by repeated synthetic division (Taylor shift)."""
    out = list(poly(p))
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += h * out[k + 1]
    return poly(out)


def is_rational_square(value: Fraction) -> tuple[bool, Fraction]:
    """Whether value is the square of a rational; returns (flag, nonnegative root)."""
    if value < 0:
        return False, Fraction(0)
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return True, Fraction(rn, rd)
    return False, Fraction(0)


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All distinct rational roots of p, ascending, each verified exactly.

    After clearing denominators and splitting off the root 0, p has integer
    coefficients c_0..c_n with c_0 != 0.  The substitution y = c_n x turns it
    into a monic integer polynomial, whose rational roots are integers; those
    are isolated by Sturm bisection (see _integer_root_candidates) and every
    candidate is checked by exact evaluation.  The cost is polynomial in the
    degree and the coefficient bit-length.
    """
    q = poly(p)
    if not q:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    if len(q) == 1:
        return []
    # clear denominators to integer coefficients
    denom_lcm = 1
    for c in q:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in q]
    # strip factors of x
    roots: list[Fraction] = []
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        ints = ints[low:]
    if len(ints) > 1:
        content = math.gcd(*ints)
        ints = [c // content for c in ints]
        n, lead = len(ints) - 1, ints[-1]
        # lead^(n-1) p(y / lead) is monic in y with integer coefficients
        monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
        for y in _integer_root_candidates(monic):
            if poly_eval(monic, Fraction(y)) == 0:
                roots.append(Fraction(y, lead))
    return sorted(roots)


def _integer_root_candidates(monic: list[int]) -> list[int]:
    """Integers m whose interval (m - 1/2, m + 1/2) holds a real root of the
    monic integer polynomial; every integer root is among them.

    Real roots lie within a Fujiwara bound, rounded up to a power of two.
    Sturm's theorem counts the distinct real roots between two points that
    are not roots, and the intervals are bisected only at half-integers,
    which a monic integer polynomial never vanishes at; signs there are
    evaluated in integers, scaled by a power of two.
    """
    n = len(monic) - 1
    bound_bits = 1 + max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(monic[:-1]))
    derivative = [i * c for i, c in enumerate(monic)][1:]
    sturm = [monic, derivative]
    while len(sturm[-1]) > 1:
        rem = _negated_remainder(sturm[-2], sturm[-1])
        if not rem:
            break
        sturm.append(rem)

    variations_at: dict[int, int] = {}

    def variations(twice: int) -> int:
        """Sign changes of the Sturm sequence at twice / 2."""
        if twice not in variations_at:
            signs = []
            for s in sturm:
                acc, scale = 0, 1
                for c in reversed(s):  # acc = 2^k s(twice / 2) after k steps of Horner
                    acc = acc * twice + c * scale
                    scale <<= 1
                if acc:
                    signs.append(acc > 0)
            variations_at[twice] = sum(a != b for a, b in zip(signs, signs[1:]))
        return variations_at[twice]

    # each interval (lo/2, hi/2) has odd lo, hi; the root count is a difference
    edge = (1 << (bound_bits + 1)) + 1
    candidates = []
    stack = [(-edge, edge)]
    while stack:
        lo, hi = stack.pop()
        if variations(lo) == variations(hi):
            continue
        if hi - lo == 2:
            candidates.append((lo + 1) // 2)
            continue
        mid = (lo + hi) // 2
        mid += 1 - mid % 2
        stack += [(lo, mid), (mid, hi)]
    return candidates


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """-(a mod b) times a positive rational, as a primitive integer polynomial."""
    rem = list(a)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while rem and len(rem) >= len(b):
        top, shift = rem[-1] * sign, len(rem) - len(b)
        rem = [c * scale for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= top * c
        while rem and rem[-1] == 0:
            rem.pop()
    if not rem:
        return []
    content = math.gcd(*rem)
    return [-c // content for c in rem]


def discrete_antidifference(f: Sequence[Fraction]) -> Poly:
    """A polynomial g with g(n) - g(n-1) = f(n), normalized so g(0) = f(0).

    deg g = deg f + 1; the additive constant is arbitrary and can be shifted
    by the caller.  Built by interpolating the cumulative sums of f at
    n = 0..deg(f)+1 and verified at two extra points.
    """
    d = len(poly(f))  # deg f + 1, or 0 for the zero polynomial
    running = poly_eval(f, Fraction(0))
    points = [(Fraction(0), running)]
    for n in range(1, d + 2):
        running += poly_eval(f, Fraction(n))
        points.append((Fraction(n), running))
    g = poly_interpolate(points)
    for n in (d + 2, d + 3):  # overdetermined check, free in exact arithmetic
        expected = poly_eval(g, Fraction(n - 1)) + poly_eval(f, Fraction(n))
        if poly_eval(g, Fraction(n)) != expected:
            raise AssertionError("antidifference interpolation failed verification")
    return g
