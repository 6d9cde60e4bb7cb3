"""Exact linear differential operators and generalized power series.

Operators are finite sums of terms ``coeff * x^p * D^k`` (``D = d/dx``) with
rational coefficients, kept in a unique normal-ordered canonical form: every
x-power stands to the left of every derivative, and an operator is its map
``{(dorder, xpow): coeff}`` with zero coefficients dropped.  Order is made only
where it is read: ``DiffOp.terms`` sorts the map by ``(dorder, xpow)``, and
printing reads it.  Composition uses the Leibniz rule

    D^k x^q = sum_{i=0}^{min(k,q)} C(k,i) * q!/(q-i)! * x^{q-i} D^{k-i},

so products, commutators and polynomial expressions in operators stay exact.
One kernel, ``_add_composition``, adds ``sign * left o right`` to a map of
unreduced integer pairs, each output term's contributions as one pair over the
lcm of their denominators (``_add_pair``).  ``_pair_map`` builds one such map
from a sum of pieces (signed products and operators, a diagonal given as
integer numerators over one denominator, and a polynomial at an operator by
Horner's rule), and only its two readers end it: ``_pair_sum`` makes one
``Fraction`` per surviving term (``compose``, ``commutator``, ``poly_of_op``,
``casimir_operator``, and ``cast_check``, whose vanishing sum makes none), and
``_diagonal_newton`` reads a diagonal sum's Newton numerators as integers.

Series are finite collections of terms ``c_m * x^(rho+m)`` with a rational
base exponent ``rho`` and integer shifts ``m`` (possibly negative).  The
action of an operator term on ``x^sigma`` is the falling factorial rule
``x^p D^k x^sigma = sigma(sigma-1)...(sigma-k+1) x^(sigma-k+p)``, which is
total for any rational ``sigma``.  One kernel, ``DiffOp._contributions``,
works out each offset ``p - k``'s weight on a monomial in integers; ``apply``
adds its contributions as ``Fraction``s, which stay reduced at a small gcd
each, and ``image_support`` as ``_add_pair``'s unreduced pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import DiagonalFitError, IncompatibleBranchError

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact input to Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int, str or Fraction), got {type(value).__name__}")


def _falling_products(n: int, d: int, k: int) -> list[int]:
    """[P_0, ..., P_k] with P_i = (n)(n-d)...(n-(i-1)d): sigma = n/d has
    sigma(sigma-1)...(sigma-i+1) = P_i / d^i."""
    out = [1]
    for i in range(k):
        out.append(out[-1] * (n - i * d))
    return out


def _add_pair(acc: dict, key, num: int, den: int) -> None:
    """acc[key] += num/den, with the sum kept as the unreduced integer pair
    (numerator, denominator) over the lcm of the two denominators."""
    if key in acc:
        n, d = acc[key]
        g = math.gcd(d, den)
        acc[key] = (n * (den // g) + num * (d // g), d // g * den)
    else:
        acc[key] = (num, den)


_Pairs = dict[tuple[int, int], tuple[int, int]]  # (dorder, xpow) -> (num, den)


def _add_composition(acc: _Pairs, left: _Pairs, right: _Pairs, sign: int = 1) -> None:
    """acc += sign * (left o right), for operators given as maps of unreduced
    integer pairs: each product of a left and a right term is Leibniz-expanded,
    x^p1 D^k1 x^p2 D^k2 = sum_i C(k1, i) p2!/(p2-i)! x^(p1+p2-i) D^(k1+k2-i),
    and each output term's contributions add up as one pair with _add_pair."""
    for (k1, p1), (a_num, a_den) in left.items():
        a_num *= sign
        for (k2, p2), (b_num, b_den) in right.items():
            num, den = a_num * b_num, a_den * b_den
            for i in range(min(k1, p2) + 1):
                leibniz = math.comb(k1, i) * math.perm(p2, i)
                _add_pair(acc, (k1 + k2 - i, p1 + p2 - i), num * leibniz, den)


class OpTerm(NamedTuple):
    """One normal-ordered term coeff * x^xpow * D^dorder."""

    coeff: Fraction
    xpow: int
    dorder: int


class DiffOp:
    """A linear differential operator in canonical normal-ordered form.

    Instances are immutable; two operators are equal iff their coefficient
    maps are equal.  The empty operator is the zero operator.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, terms: Iterable[tuple[RationalLike, int, int]] = ()):
        acc: dict[tuple[int, int], Fraction] = {}
        for coeff, xpow, dorder in terms:
            c = as_fraction(coeff)
            if c == 0:
                continue
            if type(xpow) is not int or type(dorder) is not int or xpow < 0 or dorder < 0:
                raise ValueError("x-power and derivative order must be nonnegative integers")
            key = (dorder, xpow)
            acc[key] = acc.get(key, 0) + c
        object.__setattr__(self, "_coeffs", DiffOp._canonical(acc)._coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(acc: dict[tuple[int, int], Fraction]) -> "DiffOp":
        """The operator sum acc[(k, p)] x^p D^k, from validated keys and Fraction
        coefficients; zeros are dropped."""
        op = object.__new__(DiffOp)
        object.__setattr__(op, "_coeffs", {key: c for key, c in acc.items() if c})
        return op

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[OpTerm, ...]:
        """The terms sorted by (dorder, xpow), built on each read."""
        return tuple(OpTerm(c, p, k) for (k, p), c in sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("DiffOp is immutable")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        acc = dict(self._coeffs)
        for key, c in other._coeffs.items():
            acc[key] = acc[key] + c if key in acc else c
        return DiffOp._canonical(acc)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp._canonical({key: -c for key, c in self._coeffs.items()})

    # -- composition and action --------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered composition self o other (apply other first); each output
        term's contributions add up as one integer pair, then make one Fraction."""
        return _pair_sum(products=((1, self, other),))

    def _pairs(self) -> _Pairs:
        """The coefficient map as integer pairs, the input _add_composition reads."""
        return {key: (c.numerator, c.denominator) for key, c in self._coeffs.items()}

    def _contributions(self, series: "GeneralizedSeries") -> list[tuple[int, int, int, Fraction]]:
        """[(shift, weight numerator, weight denominator, coefficient)] per monomial
        c x^sigma of series and offset p - k with a nonzero weight W: the action
        is the sum of W c at each shift.  A term x^p D^k sends x^sigma to
        sigma(sigma-1)...(sigma-k+1) x^(sigma+p-k); with sigma = n/d, one offset's
        terms add up to W = N(n) / (den d^K), den the lcm of their coefficients'
        denominators, K the top derivative order and N an integer sum of the
        falling products (n)(n-d)...(n-(k-1)d), which every offset shares."""
        d = series.base.denominator
        top = max((k for k, _ in self._coeffs), default=0)
        by_offset: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, p), c in self._coeffs.items():
            by_offset.setdefault(p - k, []).append((k, c))
        weights = []
        for offset, terms in by_offset.items():
            den = math.lcm(*(c.denominator for _, c in terms))
            weights.append((offset, den * d**top, [
                (c.numerator * (den // c.denominator) * d ** (top - k), k) for k, c in terms]))
        out = []
        for m, c in series.items():
            falling = _falling_products(series.base.numerator + m * d, d, top)
            for offset, weight_den, terms in weights:
                weight_num = sum(num * falling[k] for num, k in terms)
                if weight_num:
                    out.append((m + offset, weight_num, weight_den, c))
        return out

    def apply(self, series: "GeneralizedSeries") -> "GeneralizedSeries":
        """Exact action on a generalized series: each of _contributions' W c makes
        one Fraction, added with Fraction's own arithmetic, whose gcds of a small
        factor against a large one keep long series' coefficients reduced."""
        acc: dict[int, Fraction] = {}
        for key, weight_num, weight_den, c in self._contributions(series):
            value = Fraction(weight_num, weight_den) * c
            acc[key] = acc[key] + value if key in acc else value
        return GeneralizedSeries._canonical(series.base, acc)

    def image_support(self, series: "GeneralizedSeries") -> tuple[int, ...]:
        """The ascending shifts at which self.apply(series) is nonzero, made with
        no Fraction: the zero test of an exact residual.  It adds _contributions'
        W c per exponent with _add_pair, as compose does; a pair is zero iff its
        numerator is, so none is ever reduced."""
        acc: dict[int, tuple[int, int]] = {}  # shift -> (num, den)
        for key, weight_num, weight_den, c in self._contributions(series):
            c_num, c_den = c.as_integer_ratio()
            _add_pair(acc, key, weight_num * c_num, weight_den * c_den)
        return tuple(sorted(key for key, (n, _) in acc.items() if n))

    def apply_to_monomial(self, exponent: RationalLike) -> "GeneralizedSeries":
        return self.apply(GeneralizedSeries.monomial(exponent))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for t in self.terms:
            body = []
            if t.xpow == 1:
                body.append("x")
            elif t.xpow > 1:
                body.append(f"x^{t.xpow}")
            if t.dorder == 1:
                body.append("D")
            elif t.dorder > 1:
                body.append(f"D^{t.dorder}")
            coeff = t.coeff
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if body and mag == 1:
                text = "*".join(body)
            else:
                text = "*".join([str(mag)] + body)
            parts.append((sign, text))
        first_sign, first = parts[0]
        rendered = ("-" if first_sign == "-" else "") + first
        for sign, text in parts[1:]:
            rendered += f" {sign} {text}"
        return rendered

    def __repr__(self) -> str:
        return f"DiffOp({str(self)})"


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a o b - b o a in canonical form.  Both products add into one map of
    integer pairs, with signs +1 and -1, so a term that cancels makes no Fraction."""
    return _pair_sum(products=((1, a, b), (-1, b, a)))


def _pair_map(products: Iterable[tuple[int, DiffOp, DiffOp]] = (),
              addends: Iterable[tuple[int, DiffOp]] = (),
              diagonal: tuple[Sequence[int], int] = ((), 1),
              horner: tuple[Sequence[tuple[int, int]], DiffOp] | None = None) -> _Pairs:
    """One map of unreduced integer pairs: sum_i (n_i/d_i) op^i for horner =
    ([(n_0, d_0), ...], op) by Horner's rule, each step composing the pair map
    with op, plus sign * left o right per product, sign * op per addend and
    sum_k (nums_k/den) x^k D^k for diagonal = (nums, den)."""
    acc: _Pairs = {}
    if horner is not None:
        coeffs, op = horner
        at = op._pairs()
        for num, den in reversed(coeffs):
            step: _Pairs = {}
            _add_composition(step, acc, at)
            _add_pair(step, (0, 0), num, den)
            acc = step
    for sign, left, right in products:
        _add_composition(acc, left._pairs(), right._pairs(), sign)
    for sign, op in addends:
        for key, c in op._coeffs.items():
            _add_pair(acc, key, sign * c.numerator, c.denominator)
    nums, den = diagonal
    for k, num in enumerate(nums):
        if num:
            _add_pair(acc, (k, k), num, den)
    return acc


def _pair_sum(**pieces) -> DiffOp:
    """The operator of _pair_map(**pieces): one Fraction per term whose numerator
    is nonzero, so a sum that vanishes makes none."""
    return DiffOp._canonical({key: Fraction(n, d) for key, (n, d) in _pair_map(**pieces).items() if n})


def _diagonal_newton(max_degree: int, **pieces) -> tuple[list[int], int]:
    """(nums, den) with _pair_map(**pieces) = sum_k (nums_k/den) x^k D^k, den the
    lcm of its pairs' denominators: the Newton numerators fit_diagonal_polynomial
    reads, with its DiagonalFitErrors for a sum off the diagonal or of degree
    above max_degree."""
    acc = {key: pair for key, pair in _pair_map(**pieces).items() if pair[0]}
    top = max((k for k, _ in acc), default=-1)
    if any(k != p for k, p in acc):
        # Off the diagonal, the sum moves x^m by polynomials in m of degree <= top
        # (the highest derivative order), not all zero, so it moves one of x^0..x^top.
        op = _pair_sum(**pieces)
        for m in range(top + 1):
            off_diag = {e: c for e, c in op.apply_to_monomial(m).support().items() if e != m}
            if off_diag:
                raise DiagonalFitError(f"operator is not diagonal on x^{m}: {off_diag}")
    if top > max_degree:
        raise DiagonalFitError(f"eigenvalues are not polynomial of degree <= {max_degree}")
    den = math.lcm(*(d for _, d in acc.values()))
    newton = {k: n * (den // d) for (k, _), (n, d) in acc.items()}
    return [newton.get(k, 0) for k in range(top + 1)], den


class GeneralizedSeries:
    """A finite sum  sum_m c_m x^(base+m)  with rational base and integer shifts.

    An ordinary polynomial is the special case base = 0 with shifts >= 0.
    Stored coefficients are nonzero; the zero series stores nothing.
    """

    __slots__ = ("_base", "_coeffs")

    def __init__(self, base: RationalLike, coeffs: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        for m, c in (coeffs or {}).items():
            if type(m) is not int:
                raise ValueError(f"series shifts must be integers, got {m!r}")
            clean[m] = as_fraction(c)
        canonical = GeneralizedSeries._canonical(as_fraction(base), clean)
        object.__setattr__(self, "_base", canonical._base)
        object.__setattr__(self, "_coeffs", canonical._coeffs)

    @staticmethod
    def _canonical(base: Fraction, coeffs: Mapping[int, Fraction]) -> "GeneralizedSeries":
        """The series sum coeffs[m] x^(base+m), from integer shifts and Fraction
        coefficients; shifts are sorted and zeros dropped."""
        series = object.__new__(GeneralizedSeries)
        object.__setattr__(series, "_base", base)
        object.__setattr__(series, "_coeffs", {m: coeffs[m] for m in sorted(coeffs) if coeffs[m]})
        return series

    @staticmethod
    def monomial(exponent: RationalLike, coeff: RationalLike = 1) -> "GeneralizedSeries":
        return GeneralizedSeries(exponent, {0: coeff})

    @property
    def base(self) -> Fraction:
        return self._base

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._coeffs.items())

    def shifts(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> dict[Fraction, Fraction]:
        """Exponent -> coefficient map; the branch-independent content."""
        return {self._base + m: c for m, c in self._coeffs.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedSeries):
            return NotImplemented
        return self.support() == other.support()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("GeneralizedSeries is immutable")

    def __add__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        if not isinstance(other, GeneralizedSeries):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        offset = other._base - self._base
        if offset.denominator != 1:
            raise IncompatibleBranchError(
                f"base exponents {self._base} and {other._base} differ by a non-integer"
            )
        shift = int(offset)
        merged = dict(self._coeffs)
        for m, c in other._coeffs.items():
            key = m + shift
            merged[key] = merged.get(key, Fraction(0)) + c
        return GeneralizedSeries._canonical(self._base, merged)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for m, c in self._coeffs.items():
            exp = self._base + m
            if exp == 0:
                parts.append(f"{c}")
            elif exp == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^({exp})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GeneralizedSeries({str(self)})"
