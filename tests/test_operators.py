"""Operator core: normal ordering, actions, series arithmetic, canonical form."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from heunalg import (
    DiffOp,
    GeneralizedSeries,
    IncompatibleBranchError,
    OdeSpec,
    ResonantExponentError,
    commutator,
    full_operator,
    poly_of_op,
    polynomial_solution,
    series_solution_with_report,
)
from heunalg.operators import _falling_products
from support import reference_commutator, reference_falling_factorial, reference_operator_horner

D = DiffOp([(1, 0, 1)])
X = DiffOp([(1, 1, 0)])


def rand_op(rng, max_terms=3, max_pow=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = F(rng.randint(-6, 6), rng.randint(1, 3))
        terms.append((coeff, rng.randint(0, max_pow), rng.randint(0, max_pow)))
    return DiffOp(terms)


def assert_canonical(op):
    """Exact nonzero Fraction coefficients, sorted by (dorder, xpow), each key once."""
    keys = [(t.dorder, t.xpow) for t in op.terms]
    assert keys == sorted(set(keys)), op
    assert all(type(t.coeff) is F and t.coeff != 0 for t in op.terms), op


def assert_matches_init(a, b):
    """compose, +, - and unary - give what the validating DiffOp(...) makes of
    their raw, unmerged terms, in canonical form and with the same hash; a - a
    and a + (-a) have no terms."""
    negated_b = [(-c, p, k) for c, p, k in b.terms]
    leibniz = [(s.coeff * t.coeff * math.comb(s.dorder, i) * math.perm(t.xpow, i),
                s.xpow + t.xpow - i, s.dorder + t.dorder - i)
               for s in a.terms for t in b.terms for i in range(min(s.dorder, t.xpow) + 1)]
    cases = [(a.compose(b), leibniz), (a + b, a.terms + b.terms), (a - b, [*a.terms, *negated_b]),
             (-b, negated_b)]
    for got, raw in cases:
        assert got == DiffOp(raw), (a, b, got)
        assert hash(got) == hash(DiffOp(raw)), (a, b, got)
        assert_canonical(got)
    assert (a - a).terms == (a + (-a)).terms == (), a


def test_power_rule():
    assert D.apply_to_monomial(3) == GeneralizedSeries.monomial(2, 3)


def test_x3_d2_on_x2():
    op = DiffOp([(1, 3, 2)])
    assert op.apply_to_monomial(2) == GeneralizedSeries.monomial(3, 2)


def test_half_power_annihilation():
    op = DiffOp([(1, 1, 2), (F(1, 2), 0, 1)])
    assert op.apply_to_monomial(F(1, 2)).is_zero()


def test_identity_action_empty_falling_factorial():
    assert DiffOp([(1, 0, 0)]).apply_to_monomial(F(7, 3)) == GeneralizedSeries.monomial(F(7, 3))


def test_canonical_commutator_d_x():
    assert commutator(D, X) == DiffOp([(1, 0, 0)])


def test_compose_with_zero():
    rng = random.Random(0)
    a = rand_op(rng)
    assert a.compose(DiffOp()).is_zero()
    assert DiffOp().compose(a).is_zero()


def test_compose_xd_squared():
    xd = DiffOp([(1, 1, 1)])
    expected = DiffOp([(1, 2, 2), (1, 1, 1)])
    assert xd.compose(xd) == expected
    # oracle: match monomial actions on both sides for m = 0..4
    for m in range(5):
        lhs = xd.compose(xd).apply_to_monomial(m)
        rhs = xd.apply(xd.apply_to_monomial(m))
        assert lhs == rhs


def reference_apply(op, series):
    """The per-term loop: one Fraction falling factorial per term and monomial."""
    acc = {}
    for t in op.terms:
        for m, c in series.items():
            key = m + t.xpow - t.dorder
            sigma = series.base + m
            acc[key] = acc.get(key, 0) + t.coeff * c * reference_falling_factorial(sigma, t.dorder)
    return GeneralizedSeries(series.base, acc)


def _rational(rng, bits):
    return F(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))


def test_apply_matches_the_per_term_loop():
    rng = random.Random(2262)
    cases = [(DiffOp(), GeneralizedSeries.monomial(F(1, 3))),
             (DiffOp([(2, 1, 6)]), GeneralizedSeries(F(-2, 5), {})),
             (DiffOp(), GeneralizedSeries(0, {}))]
    for _ in range(300):
        op = DiffOp([(_rational(rng, rng.choice((4, 64))), rng.randint(0, 4), rng.randint(0, 6))
                     for _ in range(rng.randint(0, 9))])
        base = rng.choice((F(0), F(rng.randint(-6, 6)), _rational(rng, 3)))
        series = GeneralizedSeries(base, {rng.randint(-6, 8): _rational(rng, rng.choice((4, 64)))
                                          for _ in range(rng.randint(0, 8))})
        cases.append((op, series))
    for op, series in cases:
        got, want = op.apply(series), reference_apply(op, series)
        assert got.base == want.base and list(got.items()) == list(want.items()), (op, series)
        assert all(type(c) is F for _, c in got.items())


def test_falling_factorial_matches_the_fraction_product():
    rng = random.Random(2263)
    for _ in range(200):
        sigma = rng.choice((F(rng.randint(-9, 9)), _rational(rng, rng.choice((2, 64)))))
        k = rng.randint(0, 7)
        n, d = sigma.numerator, sigma.denominator
        products = _falling_products(n, d, k)
        assert len(products) == k + 1 and all(type(p) is int for p in products), (sigma, k)
        assert all(F(p, d**i) == reference_falling_factorial(sigma, i)
                   for i, p in enumerate(products)), (sigma, k)


def test_commutator_with_self_is_zero():
    rng = random.Random(1)
    for _ in range(10):
        a = rand_op(rng)
        assert commutator(a, a).is_zero()
        assert_matches_init(a, a)


def test_commutator_matches_two_compositions():
    """commutator, whose two products add into one map of integer pairs,
    against a.compose(b) - b.compose(a): random operators (0-9 terms, orders and
    powers 0-3) with 1- to 1,024-bit coefficients whose denominators are drawn
    independently, the zero operator on either side, and pairs whose products
    cancel to the zero operator (an operator with itself, with a multiple of
    itself, and polynomials in the same operator)."""
    rng = random.Random(3001)

    def random_op(bits, terms):
        return DiffOp([(_rational(rng, bits), rng.randint(0, 3), rng.randint(0, 3))
                       for _ in range(terms)])

    cases = [(DiffOp(), DiffOp()), (DiffOp(), D), (X, DiffOp())]
    for _ in range(300):
        cases.append((random_op(rng.choice((1, 2, 8, 64, 256)), rng.randint(0, 9)),
                      random_op(rng.choice((1, 2, 8, 64, 256)), rng.randint(0, 9))))
    for terms in (1, 4, 9):
        cases.append((random_op(1024, terms), random_op(1024, terms)))
    cancelling = []
    for bits in (1, 8, 64, 256, 1024):
        a = random_op(bits, rng.randint(1, 6))
        p0 = DiffOp([(1, 1, 1), (_rational(rng, bits), 0, 0)])
        cancelling += [(a, a), (a, DiffOp([(_rational(rng, bits) or 1, 0, 0)]).compose(a)),
                       (p0.compose(p0), p0), (p0, p0.compose(p0).compose(p0) - p0)]
    for a, b in cases + cancelling:
        got, want = commutator(a, b), reference_commutator(a, b)
        assert got == want and hash(got) == hash(want), (a, b)
        assert_canonical(got)
    assert all(commutator(a, b).is_zero() for a, b in cancelling)


def test_poly_of_op_matches_the_operator_horner():
    """poly_of_op, whose Horner steps stay integer pairs until the result,
    against composing and adding a constant operator at each step: polynomials of
    degree 0-4 (zero ones and ones with zero inner coefficients among them) at
    P0 = x D - j with j = 0 and with 1- to 1,024-bit j, at random operators of
    0-4 terms and at the zero operator, with 1- to 1,024-bit coefficients whose
    denominators are drawn independently."""
    rng = random.Random(3002)
    cases = [((), DiffOp()), ((F(0), F(0)), DiffOp([(1, 1, 1)])), ((F(3, 7), F(5)), DiffOp())]
    for _ in range(200):
        bits = rng.choice((1, 2, 8, 64, 256, 1024))
        p = [_rational(rng, bits) if rng.random() < 0.8 else F(0) for _ in range(rng.randint(0, 5))]
        j = rng.choice((F(0), _rational(rng, bits)))
        op = rng.choice((
            DiffOp([(1, 1, 1), (-j, 0, 0)]),
            DiffOp([(_rational(rng, bits), rng.randint(0, 3), rng.randint(0, 3))
                    for _ in range(rng.randint(0, 4))]),
        ))
        cases.append((p, op))
    for p, op in cases:
        got, want = poly_of_op(p, op), reference_operator_horner(p, op)
        assert got == want and hash(got) == hash(want), (p, op)
        assert_canonical(got)


def test_compose_associativity_randomized():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = (rand_op(rng) for _ in range(3))
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)
        assert_matches_init(a, b.compose(c))
        assert_matches_init(a.compose(b), c)


def test_action_composition_coherence():
    rng = random.Random(3)
    for _ in range(40):
        a, b = rand_op(rng), rand_op(rng)
        ab = a.compose(b)
        assert_matches_init(a, b)
        for m in range(9):
            assert ab.apply_to_monomial(m) == a.apply(b.apply_to_monomial(m))


def test_canonical_form_soundness_both_directions():
    rng = random.Random(4)
    for _ in range(30):
        a, b = rand_op(rng), rand_op(rng)
        both = a.terms + b.terms
        bound = max((t.dorder for t in both), default=0)
        bound += max((t.xpow for t in both), default=0) + 1
        actions_equal = all(
            a.apply_to_monomial(m) == b.apply_to_monomial(m) for m in range(bound + 1)
        )
        assert actions_equal == (a == b)
        assert_matches_init(b, a)
    # the same operator assembled in shuffled term order is identical
    terms = [(F(3, 2), 2, 1), (F(-1), 0, 0), (F(5), 1, 3)]
    shuffled = terms[::-1]
    assert DiffOp(terms) == DiffOp(shuffled)


def test_duplicate_terms_merge_and_cancel():
    assert DiffOp([(1, 1, 1), (2, 1, 1)]) == DiffOp([(3, 1, 1)])
    assert DiffOp([(1, 1, 1), (-1, 1, 1)]).is_zero()
    a = DiffOp([(F(1, 2), 1, 1), (2, 0, 0), ("-3", 2, 0)])
    b = DiffOp([(F(-1, 2), 1, 1), (1, 0, 1)])
    assert (a + b).terms == ((F(2), 0, 0), (F(-3), 2, 0), (F(1), 0, 1))
    assert all(type(t.coeff) is F for t in (a + b).terms)
    # D o x = x D + 1 and x o D = x D: the x D terms cancel in the commutator
    assert (D.compose(X) - X.compose(D)).terms == ((F(1), 0, 0),)
    # the private constructor keeps the map as given, minus its zeros; terms sorts it
    unsorted = DiffOp._canonical({(2, 0): F(5), (0, 3): F(0), (0, 1): F(-1, 2), (1, 4): F(3)})
    assert unsorted.terms == ((F(-1, 2), 1, 0), (F(3), 4, 1), (F(5), 0, 2))
    assert unsorted == DiffOp([(5, 0, 2), (3, 4, 1), (F(-1, 2), 1, 0)])
    assert hash(unsorted) == hash(DiffOp([(F(-1, 2), 1, 0), (3, 4, 1), (5, 0, 2)]))
    for left, right in ((a, b), (b, a), (a, DiffOp()), (DiffOp(), b), (D, X), (X, D)):
        assert_matches_init(left, right)


def negated(series):
    """-series, made by the validating GeneralizedSeries(...)."""
    return GeneralizedSeries(series.base, {m: -c for m, c in series.items()})


def assert_canonical_series(series):
    """What the validating GeneralizedSeries(...) makes of the same items:
    strictly ascending shifts and exact nonzero Fraction coefficients."""
    assert series == GeneralizedSeries(series.base, dict(series.items())), series
    shifts = series.shifts()
    assert all(a < b for a, b in zip(shifts, shifts[1:])), series
    assert type(series.base) is F, series
    assert all(type(c) is F and c != 0 for _, c in series.items()), series


def test_every_series_producer_is_canonical():
    """series_solution_with_report on ascending, descending and two-sided
    specs, DiffOp.apply and +, including results that cancel."""
    rng = random.Random(2318)

    def nonzero():
        return F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))

    results, walked = [], {"ascending": 0, "descending": 0, "two-sided": 0}
    for shape in list(walked) * 40:
        lam, other, a1 = nonzero(), nonzero(), nonzero()
        c = dict(a1=a1, a5=a1 * (1 - lam - other), a8=a1 * lam * other)
        if shape != "descending":  # R = a0 s^2 + (a4 - a0) s + a7
            c.update(a0=nonzero(), a4=nonzero(), a7=nonzero())
        if shape != "ascending":  # L = a2 s^2 + (a6 - a2) s
            c.update(a2=nonzero(), a6=nonzero())
        try:
            series, _ = series_solution_with_report(
                OdeSpec(**c), lam, rng.randint(1, 30), rng.choice((None, 3, 10)))
        except ResonantExponentError:
            continue
        walked[shape] += len(series.shifts()) > 2
        results.append(series)
    assert min(walked.values()) > 0, walked

    xd_minus_2 = DiffOp([(1, 1, 1), (-2, 0, 0)])  # annihilates x^2
    cancelled = xd_minus_2.apply(GeneralizedSeries(0, {3: 1, 2: 5, 4: F(1, 2)}))
    assert cancelled.shifts() == (3, 4)
    results.append(cancelled)
    for _ in range(100):
        op = rand_op(rng)
        a = GeneralizedSeries(rng.choice((F(0), F(1, 2), F(-7, 3))),
                              {rng.randint(-5, 5): _rational(rng, 4) for _ in range(rng.randint(0, 6))})
        b = GeneralizedSeries(a.base + rng.randint(-2, 2),
                              {rng.randint(-5, 5): rng.randint(-2, 2) for _ in range(rng.randint(0, 6))})
        zero_sum = a + negated(a)
        assert zero_sum.is_zero()
        results += [op.apply(a), a + b, a + negated(b), zero_sum]
    for series in results:
        assert_canonical_series(series)


def test_grouped_apply_edges_match_the_per_term_loop():
    """Terms that share an offset and cancel at a node, derivative orders up
    to 8 with several orders per offset, 256-bit coefficients, negative and
    non-integer bases, the empty operator and the zero series."""
    rng = random.Random(2319)
    xd_minus_2 = DiffOp([(1, 1, 1), (-2, 0, 0)])  # x D - 2 annihilates x^2
    x2d2_minus_xd = DiffOp([(1, 2, 2), (-1, 1, 1)])  # x^2 D^2 - x D annihilates x^2
    for op in (xd_minus_2, x2d2_minus_xd):
        assert op.apply(GeneralizedSeries.monomial(2)).is_zero()
        assert op.apply(GeneralizedSeries(0, {1: 3, 2: 5, 3: F(1, 2)})).shifts() == (1, 3)
    cases = [(xd_minus_2, GeneralizedSeries(F(-3), {5: 1, 4: F(2, 7)})),
             (x2d2_minus_xd, GeneralizedSeries(F(-1, 2), {0: 1, 5: 2})),
             (DiffOp(), GeneralizedSeries(F(-7, 3), {0: 1, 2: 3})),
             (DiffOp([(F(2**255 + 1, 3), 8, 8)]), GeneralizedSeries(F(5, 2), {})),
             (DiffOp(), GeneralizedSeries(0, {}))]
    for _ in range(150):
        # terms x^(offset + k) D^k at a few offsets, so that orders share them
        offsets = rng.sample(range(-3, 4), rng.randint(1, 3))
        op = DiffOp([(_rational(rng, rng.choice((4, 256))), offset + k, k)
                     for offset in offsets for k in rng.sample(range(9), rng.randint(1, 5))
                     if offset + k >= 0])
        base = rng.choice((F(rng.randint(-9, -1)), _rational(rng, 3), -abs(_rational(rng, 64))))
        series = GeneralizedSeries(base, {rng.randint(-6, 9): _rational(rng, rng.choice((4, 256)))
                                          for _ in range(rng.randint(0, 6))})
        cases.append((op, series))
    for op, series in cases:
        got = op.apply(series)
        assert got == reference_apply(op, series), (op, series)
        assert got.base == series.base
        assert_canonical_series(got)


def test_image_support_is_the_support_of_apply():
    """image_support, the certificate's integer zero test, against
    apply(...).shifts(): random operators (0-9 terms, orders and powers 0-3,
    2- to 64-bit coefficients) on rational bases and negative shifts, the zero
    operator and the zero series, 9-term operators with 1,024-bit coefficients,
    operators with orders up to 8, several per offset, on bases with 64-bit
    denominators and negative numerators (the action kernel's widest den d^K
    weights), and series and solver outputs whose image cancels at a shift
    whose contributions are nonzero one by one and sum to zero."""
    rng = random.Random(2325)
    cases = [(DiffOp(), GeneralizedSeries(F(-2, 3), {-4: 1, 3: F(5, 7)})),
             (DiffOp([(F(3, 4), 2, 1)]), GeneralizedSeries(F(1, 2), {})),
             (DiffOp(), GeneralizedSeries(0, {}))]
    for _ in range(600):
        op = DiffOp([(_rational(rng, rng.choice((2, 8, 16, 64))), rng.randint(0, 3), rng.randint(0, 3))
                     for _ in range(rng.randint(0, 9))])
        base = rng.choice((F(0), F(rng.randint(-6, 6)), _rational(rng, 3)))
        series = GeneralizedSeries(base, {rng.randint(-6, 8): _rational(rng, rng.choice((2, 16, 64)))
                                          for _ in range(rng.randint(0, 8))})
        cases.append((op, series))
    for _ in range(6):
        op = DiffOp([(_rational(rng, 1024), rng.randint(0, 3), rng.randint(0, 3)) for _ in range(9)])
        series = GeneralizedSeries(_rational(rng, 3), {m: _rational(rng, 1024) for m in range(-5, 15)})
        cases.append((op, series))
    wide, cancelling = random.Random(2828), 0
    for _ in range(150):
        offsets = wide.sample(range(-3, 4), wide.randint(1, 3))
        op = DiffOp([(_rational(wide, wide.choice((4, 64, 256))), offset + k, k)
                     for offset in offsets for k in wide.sample(range(9), wide.randint(1, 5))
                     if offset + k >= 0])
        base = F(-wide.randint(1, 2**64), wide.randint(2**63, 2**64))
        coeffs = {wide.randint(-6, 9): _rational(wide, wide.choice((4, 64, 256)))
                  for _ in range(wide.randint(0, 6))}
        if len(offsets) > 1 and coeffs:
            # the coefficient at shift - o2 that cancels the image at shift
            o1, o2 = wide.sample(offsets, 2)
            shift = wide.choice(list(coeffs)) + o1
            coeffs.pop(shift - o2, None)
            have = dict(op.apply(GeneralizedSeries(base, coeffs)).items()).get(shift, 0)
            unit = dict(op.apply(GeneralizedSeries(base, {shift - o2: 1})).items()).get(shift, 0)
            if have and unit:
                coeffs[shift - o2] = -have / unit
                cancelling += 1
        cases.append((op, GeneralizedSeries(base, coeffs)))
    assert cancelling >= 50, cancelling

    def nonzero():
        return F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))

    solved = []
    for shape in ("ascending", "descending", "two-sided") * 60:
        lam, other, a1 = nonzero(), nonzero(), nonzero()
        c = dict(a1=a1, a5=a1 * (1 - lam - other), a8=a1 * lam * other)
        if shape != "descending":
            c.update(a0=nonzero(), a4=nonzero(), a7=nonzero())
        if shape != "ascending":
            c.update(a2=nonzero(), a6=nonzero())
        spec = OdeSpec(**c)
        try:
            series, _ = series_solution_with_report(spec, lam, rng.randint(2, 20), None)
        except ResonantExponentError:
            continue
        solved.append((full_operator(spec), series))
    for _ in range(100):
        # R = 0 and F = a1 (s - z1)(s - z2): a polynomial solution with free columns z1, z2
        z1, z2, a1 = rng.randint(0, 6), rng.randint(0, 6), nonzero()
        spec = OdeSpec(a1=a1, a5=a1 * (1 - z1 - z2), a8=a1 * z1 * z2, a2=nonzero(), a6=nonzero())
        for vec in polynomial_solution(spec, 6).basis:
            solved.append((full_operator(spec), GeneralizedSeries(0, dict(enumerate(vec)))))
    cancelled = 0
    for op, series in solved:
        image = op.apply(series).shifts()
        cancelled += any(m not in image and m in op.apply(GeneralizedSeries(series.base, {m: c})).shifts()
                         for m, c in series.items())
    assert cancelled >= 150, cancelled
    for op, series in cases + solved:
        assert op.image_support(series) == op.apply(series).shifts(), (op, series)


def test_series_add():
    x2 = GeneralizedSeries.monomial(2)
    assert x2 + GeneralizedSeries.monomial(2, 3) == GeneralizedSeries.monomial(2, 4)
    assert (x2 + GeneralizedSeries.monomial(2, -1)).is_zero()


def test_series_incompatible_branch():
    half = GeneralizedSeries.monomial(F(1, 2))
    whole = GeneralizedSeries.monomial(0)
    with pytest.raises(IncompatibleBranchError):
        half + whole


@pytest.mark.parametrize("shift", [F(1, 2), 1.9, 2.0, F(2)])
def test_series_non_integer_shift_rejected(shift):
    with pytest.raises(ValueError, match=re.escape(f"got {shift!r}")):
        GeneralizedSeries(0, {shift: 1})


def test_series_integer_offset_bases_merge():
    a = GeneralizedSeries(F(1, 2), {0: 1})
    b = GeneralizedSeries(F(3, 2), {0: 1})
    merged = a + b
    assert merged.support() == {F(1, 2): F(1), F(3, 2): F(1)}


def test_diffop_str_is_deterministic():
    op = DiffOp([(F(-3, 2), 2, 1), (1, 0, 0), (F(1), 3, 2)])
    assert str(op) == "1 - 3/2*x^2*D + x^3*D^2"
    assert str(DiffOp()) == "0"


@pytest.mark.parametrize("xpow, dorder", [(-1, 0), (0, -1), (-2, 3),
                                          (F(3, 2), 1), (1, F(1, 2)), (1.0, 1), (2, 2.0)])
def test_negative_power_or_order_rejected(xpow, dorder):
    with pytest.raises(ValueError, match="must be nonnegative"):
        DiffOp([(1, 0, 0), (F(2, 3), xpow, dorder)])
    with pytest.raises(ValueError, match="must be nonnegative"):
        DiffOp([(F(-1, 2), xpow, dorder)])
    assert DiffOp([(0, xpow, dorder)]).is_zero()  # zero terms are dropped unchecked
