"""Small exact univariate polynomial toolbox over Fraction.

Polynomials are tuples of Fractions in ascending degree order with no trailing
zeros; () is the zero polynomial.  Just enough machinery for Taylor shifts
and rational roots; nothing here rounds, except poly_eval when handed a float,
which is how the kink layer's float code evaluates its polynomials
(verify.residual_sigma and kink.state_from_factor).
Roots come from p-adic lifting of the roots modulo one small prime, with no
bisection, in one finder for both rational_roots and polynomial_solution's
block spectrum: it lifts past a bound its caller reads off the polynomial,
so its cost is polynomial in the degree and the coefficient bit-length
rather than in the size of the constant term, runs the square-free
remainder sequence only when a root repeats, and checks each candidate by
one exact integer Horner evaluation.
"""

from __future__ import annotations

import itertools
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


def poly_eval(p: Sequence[Fraction | float], x: Fraction | float) -> Fraction | float:
    """p(x) by Horner's rule: exact for Fraction coefficients at a Fraction, a
    float when x or a coefficient is a float.  The float callers are
    verify.residual_sigma (float copies of SigmaOde's polynomials at sigma) and
    kink.state_from_factor (float coefficients at zeta); _horner is the
    integer evaluator of the root finder.  The sum starts at the int 0, whose
    product with a float x is a float, so float coefficients never pass
    through Fraction's slow mixed-type operators; the zero polynomial is
    Fraction(0)."""
    acc = 0 if p else Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _horner(nums: Sequence[int], n: int, d: int) -> int:
    """d^deg sum nums_i t^i at t = n/d, d > 0, deg = len(nums) - 1 (0 for no
    numerators): Horner's rule on n and d, an integer with the sign of the
    value."""
    coeffs = reversed(nums)
    acc, power = next(coeffs, 0), 1
    for c in coeffs:  # acc / power is the Horner partial sum at t
        power *= d
        acc = acc * n + c * power
    return acc


def poly_shift(p: Sequence[Fraction], h: Fraction) -> Poly:
    """Coefficients of p(t + h), one Taylor shift in integers (_shift_over)."""
    return _shift_over(*_over_lcm(p), h)


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The coefficients as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _shift_over(nums: Sequence[int], den: int, h: Fraction) -> Poly:
    """p(t + h), p = sum nums_i t^i / den: one Fraction per _shifted_pairs pair."""
    return tuple(Fraction(r, d) for r, d in _shifted_pairs(nums, den, h))


def _shifted_pairs(nums: Sequence[int], den: int, h: Fraction) -> list[tuple[int, int]]:
    """The coefficients of p(t + h), p = sum nums_i t^i / den, den > 0, as
    unreduced integer pairs (numerator, denominator), trailing zeros dropped:
    with h = u/v, P(y) = den v^n p(y/v) = sum nums_i v^(n-i) y^i is integer, and
    P(y + u) = sum r_k y^k gives p(t + h) = sum r_k t^k / (den v^(n-k))."""
    nums = list(nums)
    while nums and nums[-1] == 0:
        nums.pop()
    powers = [h.denominator ** (len(nums) - 1 - i) for i in range(len(nums))]
    shifted = _integer_shift([c * w for c, w in zip(nums, powers)], h.numerator)
    return [(r, den * w) for r, w in zip(shifted, powers)]


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

    Denominators are cleared to integers c_i with c_n > 0, and a nonzero
    root a/b in lowest terms has b | c_n and a | c_0 (c_0 the lowest nonzero
    coefficient), so c_n a/b is an integer of absolute value at most
    |c_n c_0|: _integer_polynomial_roots finds them all past the bound
    2 |c_n c_0|, and runs the remainder sequence only when a root repeats.
    """
    q = poly(p)
    if not q:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    ints, _ = _over_lcm(q if q[-1] > 0 else [-c for c in q])
    roots, lead = _integer_polynomial_roots(ints, 2 * ints[-1] * abs(next(c for c in ints if c)))
    return [Fraction(y, lead) for y in roots]


def _integer_polynomial_roots(ints: Sequence[int], bound: int) -> tuple[list[int], int]:
    """(ys, lead): the distinct rational roots of the integer polynomial
    sum c_i t^i, c_n = ints[-1] > 0, are y / lead for y in ys, ascending.
    bound must satisfy 2 |c_n r| <= bound at every nonzero rational root r.

    The root 0 is split off, leaving f with f(0) != 0, and f's roots modulo
    the least prime p (not dividing its lead) at which all of them are
    simple (_simple_roots_mod) are lifted past the bound (_lifted_roots).  A
    nonzero root that repeats does so modulo every prime, so if no prime up
    to the cap 64 + 2 n qualifies, f becomes its square-free part
    (_square_free, whose lead divides c_n, so the bound still holds and a
    monic f stays monic) and the search starts again from 2.  The cap only
    trades time, since both searches are exact; it grows with the degree
    because a large block of polynomial_solution has many roots that collide
    modulo a small prime (kink_spec(1/3, 1/2) at degree 320 has a 319-row
    block that needed p = 331).  Each candidate y is kept where f(y / lead)
    is exactly 0 (_horner).
    """
    low = next(i for i, c in enumerate(ints) if c)
    f = ints[low:]
    derivative = [i * c for i, c in enumerate(f)][1:]
    found = _simple_roots_mod(f, derivative, range(2, 65 + 2 * (len(ints) - 1)))
    if found is None:  # a nonzero root repeats, or the roots collide modulo every prime to the cap
        f = _square_free(f)
        derivative = [i * c for i, c in enumerate(f)][1:]
        found = _simple_roots_mod(f, derivative, itertools.count(2))
    prime, residues = found
    lead = f[-1]
    roots = [y for y in _lifted_roots(f, derivative, prime, residues, bound) if not _horner(f, y, lead)]
    return sorted([0] * (low > 0) + roots), lead


def _lifted_roots(f: Sequence[int], derivative: Sequence[int], prime: int, lifted: list[tuple[int, int]],
                  bound: int) -> list[int]:
    """The symmetric residues y of c_n r modulo M > bound, one per root r of
    f = sum c_i t^i modulo prime, given in lifted with 1 / f'(r)
    (_simple_roots_mod) and overwritten by the lift.  Every root of f mod p
    is simple, so a rational root a/b of f lifts from its residue uniquely
    by Newton's step, squaring the modulus until M > bound, each step
    reducing f and f' modulo the new M once for all roots; so if
    2 |c_n a/b| <= bound < M, c_n a/b is one of the residues (Loos, SIAM J.
    Comput. 12, 1983).  The lift costs O(log log M) steps.
    """
    modulus = prime
    while lifted and modulus <= bound:
        modulus *= modulus
        f_mod, d_mod = [c % modulus for c in f], [c % modulus for c in derivative]
        for i, (r, inverse) in enumerate(lifted):
            # inverse is 1 / f'(r) modulo the unsquared modulus, all Newton's step needs
            r = (r - _horner_mod(f_mod, r, modulus) * inverse) % modulus
            lifted[i] = r, inverse * (2 - _horner_mod(d_mod, r, modulus) * inverse) % modulus
    symmetric = [f[-1] * r % modulus for r, _ in lifted]
    return [y - modulus if 2 * y > modulus else y for y in symmetric]


def _simple_roots_mod(f: Sequence[int], derivative: Sequence[int],
                      primes: Iterable[int]) -> tuple[int, list[tuple[int, int]]] | None:
    """The first prime p among primes that does not divide f's leading
    coefficient and at which every root of f mod p is simple, with each root
    r, ascending, and 1 / f'(r) mod p; None when primes has no such prime.
    The roots come from evaluation at every residue with the coefficients
    reduced once per prime, the scan stopping at the first root that f'
    shares."""
    for prime in primes:
        if f[-1] % prime and all(prime % k for k in range(2, math.isqrt(prime) + 1)):
            f_mod, d_mod = [c % prime for c in f], [c % prime for c in derivative]
            roots = []
            for r in range(prime):
                if not _horner_mod(f_mod, r, prime):
                    slope = _horner_mod(d_mod, r, prime)
                    if not slope:
                        break
                    roots.append((r, pow(slope, -1, prime)))
            else:
                return prime, roots
    return None


def _horner_mod(nums: Sequence[int], x: int, m: int) -> int:
    """sum nums_i x^i mod m, Horner's rule reduced at every step."""
    acc = 0
    for c in reversed(nums):
        acc = (acc * x + c) % m
    return acc


def _square_free(ints: list[int]) -> list[int]:
    """The primitive square-free part p / gcd(p, p') of the nonzero integer
    polynomial p, leading coefficient positive.  The gcd is the last nonzero
    primitive remainder (_negated_remainder), and the quotient is exact."""
    content = math.gcd(*ints)
    f = [c // content for c in ints]
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _negated_remainder(a, b)
    gcd = [c // math.gcd(*a) for c in a]
    rem, quotient = list(f), [0] * (len(f) - len(gcd) + 1)
    for shift in reversed(range(len(quotient))):
        quotient[shift] = rem[shift + len(gcd) - 1] // gcd[-1]
        for i, c in enumerate(gcd):
            rem[shift + i] -= quotient[shift] * c
    return quotient if quotient[-1] > 0 else [-c for c in quotient]


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
