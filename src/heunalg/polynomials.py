"""Small exact univariate polynomial toolbox over Fraction.

Polynomials are tuples of Fractions in ascending degree order with no trailing
zeros; () is the zero polynomial.  Just enough machinery for Taylor shifts
and rational roots; nothing here rounds, except poly_eval when handed a float.
Rational roots, 0 among them, are isolated by Sturm bisection over the
integers, so their cost is polynomial in the degree and the coefficient
bit-length rather than in the size of the constant term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable[Fraction | int]) -> Poly:
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_padded(p: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """The coefficients of x^0..x^(n-1) in p, zeros included; p has degree < n."""
    return tuple(p) + (Fraction(0),) * (n - len(p))


def poly_eval(p: Sequence[Fraction], x: Fraction | float) -> Fraction | float:
    """p(x) by Horner's rule in the type of x: exact at a Fraction, a float at a
    float.  The kink profile (kink.SigmaOde) evaluates here at a float sigma, so
    this stays generic; _horner is the integer evaluator that ladder_at, the
    one-sided series walk and rational_roots use."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _horner(nums: Sequence[int], den: int, n: int, d: int) -> tuple[int, int]:
    """sum nums_i t^i / den at t = n/d, d > 0, as the unreduced integer pair
    (N, den d^deg), deg = len(nums) - 1 (0 for no numerators): Horner's rule
    on n and d, so the denominator depends on d only and N has the sign of
    the value."""
    coeffs = reversed(nums)
    acc, power = next(coeffs, 0), 1
    for c in coeffs:  # acc / (den * power) is the Horner partial sum at t
        power *= d
        acc = acc * n + c * power
    return acc, den * power


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


def poly_shift(p: Sequence[Fraction], h: Fraction) -> Poly:
    """Coefficients of p(t + h), one Taylor shift in integers (_shift_over)."""
    return _shift_over(*_over_lcm(p), h)


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The coefficients as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _shift_over(nums: Sequence[int], den: int, h: Fraction) -> Poly:
    """p(t + h) for p = sum nums_i t^i / den, den > 0, one Fraction per coefficient:
    with h = u/v, P(y) = den v^n p(y/v) = sum nums_i v^(n-i) y^i is integer, and
    P(y + u) = sum r_k y^k gives p(t + h) = sum r_k t^k / (den v^(n-k))."""
    nums = list(nums)
    while nums and nums[-1] == 0:
        nums.pop()
    powers = [h.denominator ** (len(nums) - 1 - i) for i in range(len(nums))]
    shifted = _integer_shift([c * w for c, w in zip(nums, powers)], h.numerator)
    return tuple(Fraction(r, den * w) for r, w in zip(shifted, powers))


def _integer_shift(nums: Sequence[int], u: int) -> list[int]:
    """P(y + u) for the integer polynomial P, by repeated synthetic division."""
    out = list(nums)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += u * out[k + 1]
    return out


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

    After clearing denominators (by their lcm) and dividing out the content,
    p has integer coefficients c_0..c_n.  The substitution y = c_n x turns it
    into a monic integer polynomial, whose rational roots are integers, the
    root 0 among them; those are isolated by Sturm bisection (see
    _integer_root_candidates) and every candidate is checked by exact integer
    evaluation.  The cost is polynomial in the degree and the coefficient
    bit-length.
    """
    q = poly(p)
    if not q:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    if len(q) == 1:
        return []
    ints, _ = _over_lcm(q)
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    n, lead = len(ints) - 1, ints[-1]
    # lead^(n-1) p(y / lead) is monic in y with integer coefficients
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    return sorted(Fraction(y, lead) for y in _integer_root_candidates(monic)
                  if not _horner(monic, 1, y, 1)[0])


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
            values = [_horner(s, 1, twice, 2)[0] for s in sturm]
            signs = [v > 0 for v in values if v]
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
