"""The ladder layer in the monomial shift m, and the kernels behind it.

fit_diagonal_polynomial reads a diagonal operator's eigenvalue polynomial in m
off its x^k D^k terms, casimir builds G(m) = g(m - j) from the product of the
ladder factors in m and checks its backward difference there, casimir_operator
turns G's Newton coefficients back into x^k D^k terms, and results move to
P0 = m - j with one Taylor shift.  brute_force_deformation, casimir_operator
and cast_check keep their operator sums as integer pairs inside operators.py;
the public operator path (commutator, compose plus a Fraction
diagonal operator, and F(P0) with DiffOp + and ==) is their reference here.
The Lagrange interpolation, the sampling fit
at the nodes m - j, the Casimir built as the antidifference of the commutator
polynomial in P0, the Leibniz rule with Fraction falling factorials and the
Taylor shift by synthetic division in Fractions that they replaced are kept
here as test-only references.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

import heunalg.algebra
from heunalg import (
    DiagonalFitError,
    DiffOp,
    NotCastableError,
    OdeSpec,
    biconfluent_heun_spec,
    brute_force_deformation,
    build_generators,
    casimir,
    casimir_operator,
    cast_check,
    confluent_heun_spec,
    deformation_coefficients,
    doubly_confluent_spec,
    fit_diagonal_polynomial,
    full_operator,
    heun_spec,
    jacobi_spec,
)
from heunalg.algebra import CasimirResult, DeformationCoeffs, _casimir_in_m, _newton_of
from heunalg.catalog import HeunParams
from heunalg.operators import GeneralizedSeries, _diagonal_newton, commutator
from heunalg.polynomials import _horner, poly, poly_eval, poly_shift
from support import (f_of_p0, poly_add, reference_falling_factorial, reference_interpolate,
                     with_fields)


# -- test-only references ---------------------------------------------------------


def reference_antidifference(f):
    """g(n) - g(n-1) = f(n), g(0) = f(0), by Lagrange through cumulative sums."""
    d = len(poly(f))
    points, running = [], F(0)
    for n in range(d + 2):
        running += poly_eval(f, F(n)) if n > 0 else F(0)
        points.append((F(n), running + poly_eval(f, F(0))))
    return reference_interpolate(points)


def reference_compose(a, b):
    """a o b by the Leibniz rule with a Fraction falling factorial per term."""
    out = []
    for s in a.terms:
        for t in b.terms:
            for i in range(min(s.dorder, t.xpow) + 1):
                c = s.coeff * t.coeff * math.comb(s.dorder, i) * reference_falling_factorial(F(t.xpow), i)
                out.append((c, s.xpow + t.xpow - i, s.dorder + t.dorder - i))
    return DiffOp(out)


def reference_poly_shift(p, h):
    """p(t + h) by repeated synthetic division in Fractions."""
    out = list(poly(p))
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += h * out[k + 1]
    return poly(out)


def reference_poly_of_op(p, op):
    result = DiffOp()
    for c in reversed(poly(p)):
        result = reference_compose(result, op) + DiffOp([(c, 0, 0)])
    return result


def reference_fit(op, j, max_degree):
    """Interpolation at the nodes m - j, checked at two more of them."""
    eigenvalues = []
    for m in range(max_degree + 3):
        image = op.apply_to_monomial(m)
        off_diag = {e: c for e, c in image.support().items() if e != m}
        if off_diag:
            raise DiagonalFitError(f"operator is not diagonal on x^{m}: {off_diag}")
        eigenvalues.append(image.support().get(m, 0))
    fitted = reference_interpolate([(F(m) - j, eigenvalues[m]) for m in range(max_degree + 1)])
    for m in (max_degree + 1, max_degree + 2):
        if poly_eval(fitted, F(m) - j) != eigenvalues[m]:
            raise DiagonalFitError(f"eigenvalues are not polynomial of degree <= {max_degree}")
    return fitted


def reference_casimir(spec, m_range=10):
    """g as the antidifference of the commutator polynomial in P0."""
    if spec.a3 != 0:
        raise NotCastableError(f"casting requires a3 = 0, got a3 = {spec.a3}")
    g0 = reference_antidifference(deformation_coefficients(spec).as_poly())

    def lowering_raising(m):
        """R(m) L(m+1), written out from a0..a8."""
        raising = spec.a0 * m * (m - 1) + spec.a4 * m + spec.a7
        lowering = spec.a2 * (m + 1) * m + spec.a6 * (m + 1)
        return raising * lowering

    shift = spec.a6 * spec.a7 - (lowering_raising(0) + poly_eval(g0, -spec.j))
    g = poly_add(g0, (shift,))
    values = [lowering_raising(m) + poly_eval(g, F(m) - spec.j) for m in range(m_range + 1)]
    return CasimirResult(g_poly=g, scalar=values[0], is_scalar=all(v == values[0] for v in values))


def reference_casimir_operator(spec):
    gens = build_generators(spec)
    g = reference_casimir(spec).g_poly
    return reference_compose(gens.p_minus, gens.p_plus) + reference_poly_of_op(g, gens.p_zero)


def reference_brute_force(spec):
    gens = build_generators(spec)
    comm = reference_compose(gens.p_plus, gens.p_minus) - reference_compose(gens.p_minus, gens.p_plus)
    c = list(reference_fit(comm, spec.j, 3)) + [F(0)] * 4
    return DeformationCoeffs(alpha1=c[3], beta1=c[2], gamma1=c[1], delta1=c[0])


def reference_f_of_p0(spec):
    a1, a5, a8, j = spec.a1, spec.a5, spec.a8, spec.j
    quadratic = (a1 * j * j - (a1 - a5) * j + a8, (2 * j - 1) * a1 + a5, a1)
    return reference_poly_of_op(quadratic, build_generators(spec).p_zero)


def outcome(call, *args):
    """A call's result or its exception, in a form that compares exactly."""
    try:
        value = call(*args)
    except (DiagonalFitError, NotCastableError) as exc:
        return type(exc).__name__, str(exc)
    return repr(value), value


# -- seeded specs -----------------------------------------------------------------


FAMILIES = ("heun", "confluent", "biconfluent", "doubly_confluent", "jacobi",
            "sl2", "generic", "sparse")
BITS = (4, 16, 64, 256)


def _rational(rng, bits):
    num = rng.getrandbits(bits) | (1 << (bits - 1))
    den = rng.getrandbits(bits) | 1
    return F(-num if rng.random() < 0.5 else num, den)


def random_ladder_spec(rng, family, bits):
    """A spec of the family with bits-bit coefficients and a nonzero j."""
    def r():
        return _rational(rng, bits)

    j = r()
    if family == "heun":
        a_sing = r()
        while a_sing in (0, 1):
            a_sing = r()
        params = HeunParams(gamma=r(), delta=r(), eps_h=r(), a_sing=a_sing,
                            alpha=r(), beta=r(), q=r())
        return heun_spec(params, j=j)
    if family == "confluent":
        return confluent_heun_spec(r(), r(), r(), r(), r(), j=j)
    if family == "biconfluent":
        return biconfluent_heun_spec(r(), r(), r(), r(), j=j)
    if family == "doubly_confluent":
        return doubly_confluent_spec(r(), r(), r(), r(), j=j)
    if family == "jacobi":
        return jacobi_spec(r(), r(), r(), j=j)
    if family == "sl2":
        return OdeSpec(a4=F(1), a7=-2 * j, a6=F(1), j=j)
    names = ("a0", "a1", "a2", "a4", "a5", "a6", "a7", "a8")
    if family == "generic":
        return OdeSpec(j=j, **{name: r() for name in names})
    # sparse: each coefficient vanishes with probability 1/2
    return OdeSpec(j=j, **{name: r() if rng.random() < 0.5 else F(0) for name in names})


def seeded_specs(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        family = FAMILIES[k % len(FAMILIES)]
        bits = BITS[(k // len(FAMILIES)) % len(BITS)]
        yield family, random_ladder_spec(rng, family, bits)


# -- identical results ------------------------------------------------------------


def test_ladder_calls_match_reference():
    seen = {"result": 0, "not castable": 0}
    for family, spec in seeded_specs(2251, 1000):
        assert spec.j != 0
        for m_range in (0, 3, 10):
            assert outcome(casimir, spec, m_range) == outcome(reference_casimir, spec, m_range), spec
        assert outcome(casimir_operator, spec) == outcome(reference_casimir_operator, spec), spec
        assert outcome(brute_force_deformation, spec) == outcome(reference_brute_force, spec), spec
        got = outcome(deformation_coefficients, spec)
        assert got == outcome(reference_brute_force, spec), spec
        if family == "jacobi":
            assert got[0] == "NotCastableError"
            seen["not castable"] += 1
            continue
        assert cast_check(spec) is True
        assert f_of_p0(spec) == reference_f_of_p0(spec), spec
        seen["result"] += 1
    assert seen["not castable"] == 125 and seen["result"] == 875, seen


def test_ladder_at_and_ladder_polys_match_the_coefficients():
    rng = random.Random(2259)
    for _, spec in seeded_specs(2251, 400):
        ladder = spec.ladder_polys()
        assert all(len(p) <= 3 for p in ladder)
        for _ in range(3):
            t = _rational(rng, rng.choice((4, 32, 128)))
            want = (
                spec.a0 * t * (t - 1) + spec.a4 * t + spec.a7,
                spec.a1 * t * (t - 1) + spec.a5 * t + spec.a8,
                spec.a2 * t * (t - 1) + spec.a6 * t,
            )
            assert spec.ladder_at(t) == want, (spec, t)
            assert tuple(poly_eval(p, t) for p in ladder) == want, (spec, t)


def _closed_form_ladder(spec, t):
    return (
        spec.a0 * t * (t - 1) + spec.a4 * t + spec.a7,
        spec.a1 * t * (t - 1) + spec.a5 * t + spec.a8,
        spec.a2 * t * (t - 1) + spec.a6 * t,
    )


def _ladder_at_arguments(rng):
    """int and Fraction exponents: zero, negative, and denominators up to 2^64."""
    yield from (0, F(0), 1, -1, -7, F(-5, 3), F(1, 2**64), F(-(2**70 + 1), 2**64 - 59))
    for _ in range(3):
        yield rng.randint(-2**40, 2**40)
        den = rng.randint(1, 2 ** rng.choice((1, 8, 64)))
        yield F(rng.randint(-2**65, 2**65), den)


def test_ladder_at_is_integer_horner_of_the_ladder_polys():
    """ladder_at against poly_eval on ladder_polys() and the closed form, and
    the integer row under it, D d^2 (R, F, L)(n/d) with D the lcm of the
    factors' denominators, against poly_eval."""
    rng = random.Random(2261)
    specs = [OdeSpec(), OdeSpec(a1=3, a5=F(-1, 2), a8=7), OdeSpec(a0=F(2, 3), a4=F(2, 3), a7=5),
             OdeSpec(a2=F(5, 7), a6=F(5, 7)), OdeSpec(a6=-4, a8=F(1, 9))]
    for bits in (4, 16, 64, 256, 1024):
        specs += [random_ladder_spec(rng, "sparse", bits) for _ in range(12)]
        specs += [random_ladder_spec(rng, "generic", bits) for _ in range(2)]
    empty = [0, 0, 0]
    for spec in specs:
        ladder = spec.ladder_polys()
        for k, p in enumerate(ladder):
            empty[k] += not p
        common = math.lcm(*(c.denominator for p in ladder for c in p))
        assert spec._ladder_scale == common, spec
        for s in _ladder_at_arguments(rng):
            got = spec.ladder_at(s)
            assert all(type(v) is F for v in got), (spec, s, got)
            assert got == tuple(poly_eval(p, F(s)) for p in ladder), (spec, s)
            assert got == _closed_form_ladder(spec, F(s)), (spec, s)
            n, d = F(s).numerator, F(s).denominator
            row = spec._ladder_row(n, d)
            assert all(type(v) is int for v in row), (spec, s, row)
            assert row == tuple(common * d * d * poly_eval(p, F(s)) for p in ladder), (spec, s)
    assert min(empty) >= 3, empty


def test_horner_is_exact_integer_evaluation():
    """_horner(nums, n, d) over den d^deg against poly_eval of nums / den at
    n/d: the zero and constant polynomials, d = 1 and d = 2, negative n and
    0- to 1,024-bit numerators."""
    rng = random.Random(2263)
    polys = [([], 1), ([0], 3), ([5], 1), ([-7], 4)]
    for bits in (0, 1, 4, 64, 256, 1024):
        for length in range(1, 6):
            nums = [rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(length)]
            polys.append((nums, rng.randint(1, 2 ** rng.choice((1, 8, 64)))))
    for nums, den in polys:
        p = tuple(F(c, den) for c in nums)
        for d in (1, 2, 3, rng.randint(1, 2**64)):
            for n in (0, 1, -1, -2 * d - 1, rng.randint(-2**70, 2**70)):
                num = _horner(nums, n, d)
                assert type(num) is int
                assert F(num, den * d ** max(len(nums) - 1, 0)) == poly_eval(p, F(n, d)), (nums, den, n, d)


def test_casimir_ignores_m_range():
    for family, spec in seeded_specs(2260, 200):
        if family == "jacobi":
            continue
        result = casimir(spec)
        assert result.is_scalar and result.scalar == spec.a6 * spec.a7, spec
        assert all(casimir(spec, m) == result for m in (0, 1, 25)), spec


def test_casimir_certificate_is_not_a_tautology(monkeypatch):
    """G(m) comes from the ladder factors and the commutator polynomial from
    a0, a2, a4, a6, a7, so a fault in the closed form shows in is_scalar, and
    brute_force_deformation does not share it."""
    closed_form = heunalg.algebra._base_commutator_poly
    specs = [spec for family, spec in seeded_specs(2262, 64) if family != "jacobi"]
    for n, spec in enumerate(specs):
        assert casimir(spec).is_scalar, spec
        assert deformation_coefficients(spec) == brute_force_deformation(spec), spec

        def perturbed(spec, index=n % 4):
            nums, den = closed_form(spec)
            nums = list(nums)
            nums[index] += den  # one m-coefficient off by 1
            return nums, den

        with monkeypatch.context() as patch:
            patch.setattr(heunalg.algebra, "_base_commutator_poly", perturbed)
            assert casimir(spec).is_scalar is False, spec
            assert deformation_coefficients(spec) != brute_force_deformation(spec), spec


def _fit_targets(spec, rng):
    """Diagonal operators, non-diagonal ones and too-small degrees."""
    if spec.a3 != 0:  # no ladder split; the a3 D^2 term lowers x^m by two
        yield full_operator(spec), rng.randint(0, 3)
        return
    gens = build_generators(spec)
    comm = gens.p_plus.compose(gens.p_minus) - gens.p_minus.compose(gens.p_plus)
    yield comm, rng.randint(0, 5)
    yield f_of_p0(spec), rng.randint(0, 3)
    yield casimir_operator(spec), rng.randint(0, 2)
    yield gens.p_plus if rng.random() < 0.5 else full_operator(spec), rng.randint(0, 3)
    p = poly(_rational(rng, 8) for _ in range(rng.randint(0, 6)))
    yield reference_poly_of_op(p, gens.p_zero), rng.randint(0, 7)


def test_fits_and_fit_errors_match_reference():
    rng = random.Random(2252)
    seen = {"fit": 0, "not diagonal": 0, "not polynomial": 0}
    for _, spec in seeded_specs(2253, 1000):
        for op, degree in _fit_targets(spec, rng):
            got = outcome(fit_diagonal_polynomial, op, spec.j, degree)
            assert got == outcome(reference_fit, op, spec.j, degree), (spec, op, degree)
            if got[0] != "DiagonalFitError":
                seen["fit"] += 1
            elif "not diagonal" in got[1]:
                seen["not diagonal"] += 1
            else:
                seen["not polynomial"] += 1
    assert min(seen.values()) >= 300, seen


def test_compose_matches_reference_leibniz():
    rng = random.Random(2254)
    for _ in range(500):
        a, b = (
            DiffOp([(_rational(rng, rng.choice((4, 64))), rng.randint(0, 4), rng.randint(0, 4))
                    for _ in range(rng.randint(0, 4))])
            for _ in range(2)
        )
        got, want = a.compose(b), reference_compose(a, b)
        assert got == want and repr(got) == repr(want), (a, b)
    for bits in (256, 1024):
        for _ in range(40):
            a, b = (
                DiffOp([(_rational(rng, bits), rng.randint(0, 4), rng.randint(0, 4))
                        for _ in range(rng.randint(1, 4))])
                for _ in range(2)
            )
            got, want = a.compose(b), reference_compose(a, b)
            assert got == want and repr(got) == repr(want), (a, b)
    # (c D^k + e) o (u x^k + v) has the constant term k! c u + e v, which e cancels
    for n in range(120):
        bits, k = (4, 64, 256, 1024)[n % 4], rng.randint(1, 4)
        c, u, v = (_rational(rng, bits) for _ in range(3))
        e = -math.factorial(k) * c * u / v
        a, b = DiffOp([(c, 0, k), (e, 0, 0)]), DiffOp([(u, k, 0), (v, 0, 0)])
        got, want = a.compose(b), reference_compose(a, b)
        assert got == want and repr(got) == repr(want), (a, b)
        assert (0, 0) not in {(t.dorder, t.xpow) for t in got.terms}, (a, b)
        assert len(got.terms) == k + 2, (a, b)  # x^i D^i for i = 1..k, e u x^k and c v D^k


def test_ladder_calls_on_1024_bit_spec_finish_quickly():
    """The five ladder calls take about 0.01 s at 1,024 bits on a 2-vCPU host."""
    spec = random_ladder_spec(random.Random(2255), "generic", 1024)
    start = time.perf_counter()
    closed = deformation_coefficients(spec)
    brute = brute_force_deformation(spec)
    cas = casimir(spec)
    cas_op = casimir_operator(spec)
    cast_ok = cast_check(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert closed == brute and cas.is_scalar and cas.scalar == spec.a6 * spec.a7 and cast_ok
    assert fit_diagonal_polynomial(cas_op, spec.j, 0) == poly((cas.scalar,))


@pytest.mark.parametrize("op, max_degree, message", [
    (DiffOp([(1, 6, 6)]), 3, "eigenvalues are not polynomial of degree <= 3"),
    (DiffOp([(1, 0, 6)]), 3, "operator is not diagonal on x^6: {Fraction(0, 1): Fraction(720, 1)}"),
    # 2 x D is diagonal; x^9 D^5 first moves x^5, past the nodes 0..3 a sampling fit probes
    (DiffOp([(2, 1, 1), (5, 9, 5)]), 1,
     "operator is not diagonal on x^5: {Fraction(9, 1): Fraction(600, 1)}"),
], ids=["x6D6", "D6", "xD+x9D5"])
def test_fit_sees_terms_of_any_order(op, max_degree, message):
    with pytest.raises(DiagonalFitError) as caught:
        fit_diagonal_polynomial(op, 0, max_degree)
    assert str(caught.value) == message


def test_fit_of_falling_factorial_sums_holds_off_the_nodes():
    """x^k D^k sends x^s to s(s-1)...(s-k+1) x^s for rational s too, and the
    diagonal operator built from a polynomial in m is what the fit reads back."""
    rng = random.Random(2261)
    round_trip_rng = random.Random(2264)
    for n in range(300):
        top = rng.randint(0, 8)
        coeffs = [_rational(rng, 16) if k == top or rng.random() < 0.5 else F(0)
                  for k in range(top + 1)]
        op = DiffOp([(c, k, k) for k, c in enumerate(coeffs)])
        j = _rational(rng, rng.choice((4, 32)))
        p = fit_diagonal_polynomial(op, j, top)
        assert len(p) == top + 1, (op, j)
        # an odd denominator plus 1/2 is even, so these exponents are not integers
        exponents = [F(s) for s in range(11)] + [_rational(rng, 16) + F(1, 2) for _ in range(3)]
        for s in exponents:
            want = GeneralizedSeries.monomial(s, poly_eval(p, s - j))
            assert op.apply_to_monomial(s) == want, (op, j, s)
        if top > 0:
            with pytest.raises(DiagonalFitError, match=f"not polynomial of degree <= {top - 1}$"):
                fit_diagonal_polynomial(op, j, top - 1)
        # degree n % 8 - 1, from the zero polynomial () to degree 6, up to 256 bits
        bits = (4, 32, 256)[n % 3]
        p_in_m = poly(_rational(round_trip_rng, bits) for _ in range(n % 8))
        den = math.lcm(*(c.denominator for c in p_in_m))
        newton = _newton_of([c.numerator * (den // c.denominator) for c in p_in_m])
        diagonal = DiffOp([(F(c, den), k, k) for k, c in enumerate(newton)])
        assert all(t.xpow == t.dorder for t in diagonal.terms), p_in_m
        degree = max(len(p_in_m) - 1, 0)
        assert fit_diagonal_polynomial(diagonal, 0, degree) == p_in_m
        assert fit_diagonal_polynomial(diagonal, j, degree) == poly_shift(p_in_m, j), (p_in_m, j)
        for s in exponents[:4] + exponents[-1:]:
            want = GeneralizedSeries.monomial(s, poly_eval(p_in_m, s))
            assert diagonal.apply_to_monomial(s) == want, (p_in_m, s)


# -- pair paths -------------------------------------------------------------------


def public_brute_force(spec):
    gens = build_generators(spec)
    bracket = commutator(gens.p_plus, gens.p_minus)
    return DeformationCoeffs.from_poly(fit_diagonal_polynomial(bracket, spec.j, 3))


def public_casimir_operator(spec):
    gens = build_generators(spec)
    g_in_m, den = _casimir_in_m(spec)
    diagonal = DiffOp([(F(c, den), k, k) for k, c in enumerate(_newton_of(g_in_m))])
    return gens.p_minus.compose(gens.p_plus) + diagonal


def public_cast_check(spec):
    """P+ + F(P0) + P- == the operator, read through the module attribute so that
    a patched full_operator reaches both sides."""
    gens = build_generators(spec)
    return gens.p_plus + f_of_p0(spec) + gens.p_minus == heunalg.algebra.full_operator(spec)


def _reduced(values):
    return all(type(c) is F and math.gcd(c.numerator, c.denominator) == 1 and c.denominator > 0
               for c in values)


def _pair_path_spec(rng, n):
    """1- to 256-bit coefficients, each zero with probability 1/3, j = 0 or a j
    with a 256-bit denominator; every tenth spec has a3 != 0, no ladder split."""
    bits = rng.randint(1, 256)
    fields = {name: F(0) if rng.random() < 1 / 3 else _rational(rng, bits)
              for name in ("a0", "a1", "a2", "a4", "a5", "a6", "a7", "a8")}
    if n % 10 == 9:
        fields["a3"] = _rational(rng, bits)
    j = F(0) if rng.random() < 0.5 else F(rng.getrandbits(256) - 2**255, rng.getrandbits(256) | 2**255)
    return OdeSpec(j=j, **fields), bits


def test_pair_paths_match_the_public_operator_path(monkeypatch):
    """brute_force_deformation, casimir_operator and cast_check equal the public
    operator path on 320 specs, return reduced Fractions, and raise
    NotCastableError where a3 != 0.  cast_check also meets, half of the time,
    a full_operator with one extra term, which both sides read."""
    rng = random.Random(2271)
    original = heunalg.algebra.full_operator
    seen = {"not castable": 0, "j = 0": 0, "cast": 0, "no cast": 0}
    for n in range(320):
        spec, bits = _pair_path_spec(rng, n)
        if spec.a3:
            for call in (brute_force_deformation, casimir_operator, cast_check):
                with pytest.raises(NotCastableError):
                    call(spec)
            seen["not castable"] += 1
            continue
        seen["j = 0"] += spec.j == 0
        got, want = brute_force_deformation(spec), public_brute_force(spec)
        assert got == want and repr(got) == repr(want) and _reduced(got), spec
        got, want = casimir_operator(spec), public_casimir_operator(spec)
        assert got == want and repr(got) == repr(want), spec
        assert _reduced(t.coeff for t in got.terms), spec
        extra = DiffOp()
        if rng.random() < 0.5:
            extra = DiffOp([(_rational(rng, bits), rng.randint(0, 3), rng.randint(0, 2))])
        with monkeypatch.context() as patch:
            patch.setattr(heunalg.algebra, "full_operator", lambda s: original(s) + extra)
            got = cast_check(spec)
            assert got is public_cast_check(spec), (spec, extra)
        seen["cast" if got else "no cast"] += 1
    assert seen["not castable"] == 32 and seen["j = 0"] >= 100, seen
    assert min(seen["cast"], seen["no cast"]) >= 100, seen


def test_cast_check_sees_a_changed_operator(monkeypatch):
    """With a8 + 1 in place of a8 in the operator it compares with, cast_check
    is False; and a cast that holds makes no Fraction in operators.py."""
    specs = [spec for family, spec in seeded_specs(2272, 48) if family != "jacobi"]
    assert all(cast_check(spec) for spec in specs)
    original = heunalg.algebra.full_operator
    with monkeypatch.context() as patch:
        patch.setattr(heunalg.algebra, "full_operator",
                      lambda spec: original(with_fields(spec, a8=spec.a8 + 1)))
        assert not any(cast_check(spec) for spec in specs)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} made")

    with monkeypatch.context() as patch:
        patch.setattr(heunalg.operators, "Fraction", no_fraction)
        assert all(cast_check(spec) for spec in specs)


@pytest.mark.parametrize("a, b, max_degree, message", [
    (DiffOp([(1, 2, 0)]), DiffOp([(1, 0, 1)]), 3,  # [x^2, D] = -2x
     "operator is not diagonal on x^0: {Fraction(1, 1): Fraction(-2, 1)}"),
    (DiffOp([(1, 1, 1)]), DiffOp([(1, 6, 4)]), 5,  # 2 x^6 D^4 first moves x^4
     "operator is not diagonal on x^4: {Fraction(6, 1): Fraction(48, 1)}"),
    (DiffOp([(3, 0, 3)]), DiffOp([(1, 5, 0)]), 3,
     "operator is not diagonal on x^0: {Fraction(2, 1): Fraction(180, 1)}"),
    (DiffOp([(1, 2, 1)]), DiffOp([(1, 1, 2)]), 1,  # -2 x D - 3 x^2 D^2
     "eigenvalues are not polynomial of degree <= 1"),
], ids=["x2-D", "xD-x6D4", "D3-x5", "degree"])
def test_commutator_reader_raises_the_fit_message(a, b, max_degree, message):
    """The private reader of [a, b] raises DiagonalFitError with the message the
    public fit gives for commutator(a, b)."""
    with pytest.raises(DiagonalFitError) as public:
        fit_diagonal_polynomial(commutator(a, b), 0, max_degree)
    with pytest.raises(DiagonalFitError) as private:
        _diagonal_newton(max_degree, products=((1, a, b), (-1, b, a)))
    assert str(private.value) == str(public.value) == message


# -- argument checks --------------------------------------------------------------


@pytest.mark.parametrize("m_range", [-1, -5])
def test_casimir_rejects_negative_m_range(m_range):
    with pytest.raises(ValueError, match="m_range must be nonnegative"):
        casimir(OdeSpec(a4=1, a6=1, a7=-1, j=F(1, 2)), m_range)


@pytest.mark.parametrize("max_degree", [-1, -2, -3])
def test_fit_rejects_negative_degree(max_degree):
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        fit_diagonal_polynomial(DiffOp([(1, 0, 0)]), 0, max_degree)


# -- kernels ----------------------------------------------------------------------


def _random_poly(rng, max_len=8, bits=32):
    return poly(_rational(rng, rng.randint(1, bits)) for _ in range(rng.randint(0, max_len)))


def test_poly_shift_evaluates_at_shifted_points():
    rng = random.Random(2256)
    for _ in range(300):
        p, h = _random_poly(rng), _rational(rng, rng.randint(1, 40))
        shifted = poly_shift(p, h)
        assert len(shifted) == len(p)
        for _ in range(3):
            t = _rational(rng, rng.randint(1, 40))
            assert poly_eval(shifted, t) == poly_eval(p, t + h)


def test_poly_shift_round_trip_is_identity():
    rng = random.Random(2257)
    for _ in range(300):
        p, h = _random_poly(rng), _rational(rng, rng.randint(1, 64))
        assert poly_shift(poly_shift(p, h), -h) == p


def test_poly_shift_matches_reference_synthetic_division():
    rng = random.Random(2258)
    for n in range(900):
        degree, bits = n % 9, rng.randint(4, 512)
        p = [_rational(rng, rng.randint(4, bits)) if rng.random() < 0.8 else F(0)
             for _ in range(degree + 1)]
        h = (F(0), F(-rng.randint(1, 2**rng.randint(1, 64))), _rational(rng, bits))[n % 3]
        got, want = poly_shift(p, h), reference_poly_shift(p, h)
        assert got == want and repr(got) == repr(want), (p, h)


def test_poly_shift_edges():
    assert poly_shift((), F(5)) == ()
    assert poly_shift([F(0), F(0)], F(3)) == ()
    assert poly_shift((F(7),), F(-2)) == (F(7),)
    assert poly_shift((F(1), F(2), F(3)), F(0)) == (F(1), F(2), F(3))
    # (t + 1)^2 = t^2 + 2t + 1
    assert poly_shift((F(0), F(0), F(1)), F(1)) == (F(1), F(2), F(1))
