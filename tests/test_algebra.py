"""Generator construction, deformation coefficients, Casimir."""

import inspect
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from heunalg import (
    DiffOp,
    DiagonalFitError,
    GeneralizedSeries,
    NotCastableError,
    OdeSpec,
    brute_force_deformation,
    build_generators,
    casimir,
    casimir_operator,
    cast_check,
    classify_deformation,
    commutator,
    deformation_coefficients,
    fit_diagonal_polynomial,
    full_operator,
    is_abelian,
    poly_of_op,
    sl2_generators,
)
from heunalg.polynomials import poly_eval
from support import f_of_p0, with_fields


def random_spec(rng, j=None):
    def frac():
        return F(rng.randint(-20, 20), rng.randint(1, 4))

    return OdeSpec(
        a0=frac(), a1=frac(), a2=frac(), a4=frac(), a5=frac(),
        a6=frac(), a7=frac(), a8=frac(),
        j=frac() if j is None else F(j),
    )


HEUN_INSTANCE = OdeSpec(
    a0=1, a1=-3, a2=2, a4=F(3, 2), a5=-3, a6=1, a7=2, a8=-1,
)


class TestSl2:
    def test_closed_algebra_j0(self):
        g = sl2_generators(0)
        assert commutator(g.p_plus, g.p_minus) == DiffOp([(-2, 1, 1)])  # -2 P0 at j = 0

    @pytest.mark.parametrize("j", [F(0), F(1, 2), F(1), F(7, 3)])
    def test_ladder_relations(self, j):
        g = sl2_generators(j)
        assert commutator(g.p_zero, g.p_plus) == g.p_plus
        assert commutator(g.p_zero, g.p_minus) == -g.p_minus
        assert commutator(g.p_plus, g.p_minus) == DiffOp([(-2, 1, 1), (2 * j, 0, 0)])  # -2 P0

    def test_highest_weight_annihilation(self):
        g = sl2_generators(1)
        assert g.p_plus.apply_to_monomial(2).is_zero()


class TestBuildGenerators:
    def test_generators_equal_validating_constructor(self):
        """Zero coefficients drop out and the rest stay exact Fractions in
        (dorder, xpow) order, as DiffOp(raw_terms) makes them; the same holds
        for full_operator and casimir_operator."""
        rng = random.Random(1717)
        names = ("a0", "a2", "a4", "a6", "a7", "j")
        specs = [OdeSpec(), HEUN_INSTANCE]
        for _ in range(40):
            zeroed = rng.sample(names, rng.randint(0, len(names)))
            specs.append(with_fields(random_spec(rng), **{n: F(0) for n in zeroed}))
        for spec in specs:
            gens = build_generators(spec)
            # C's diagonal part acts on x^m by G(m) = a6 a7 - R(m) L(m+1), a quartic;
            # its x^k D^k coefficient is the k-th forward difference of G at 0 over k!
            g = [spec.a6 * spec.a7 - spec.ladder_at(m)[0] * spec.ladder_at(m + 1)[2] for m in range(5)]
            diagonal = []
            for k in range(5):
                diagonal.append((g[0] / math.factorial(k), k, k))
                g = [b - a for a, b in zip(g, g[1:])]
            for got, raw in (
                (gens.p_plus, [(spec.a0, 3, 2), (spec.a4, 2, 1), (spec.a7, 1, 0)]),
                (gens.p_zero, [(1, 1, 1), (-spec.j, 0, 0)]),
                (gens.p_minus, [(spec.a2, 1, 2), (spec.a6, 0, 1)]),
                (full_operator(spec), [(spec.a0, 3, 2), (spec.a1, 2, 2), (spec.a2, 1, 2), (spec.a3, 0, 2),
                                       (spec.a4, 2, 1), (spec.a5, 1, 1), (spec.a6, 0, 1),
                                       (spec.a7, 1, 0), (spec.a8, 0, 0)]),
                (casimir_operator(spec), [*gens.p_minus.compose(gens.p_plus).terms, *diagonal]),
            ):
                assert got == DiffOp(raw), spec
                assert all(type(t.coeff) is F and t.coeff != 0 for t in got.terms), spec

    def test_heun_instance_p_plus(self):
        gens = build_generators(HEUN_INSTANCE)
        assert gens.p_plus == DiffOp([(1, 3, 2), (F(3, 2), 2, 1), (2, 1, 0)])

    def test_a3_nonzero_rejected(self):
        with pytest.raises(NotCastableError):
            build_generators(OdeSpec(a0=1, a3=1))

    def test_biconfluent_shape(self):
        spec = OdeSpec(a2=1, a4=-2, a6=2, a7=-2)
        gens = build_generators(spec)
        assert gens.p_plus == DiffOp([(-2, 2, 1), (-2, 1, 0)])
        assert gens.p_minus == DiffOp([(1, 1, 2), (2, 0, 1)])

    def test_grading_on_monomials(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = random_spec(rng)
            gens = build_generators(spec)
            for m in range(4):
                up = gens.p_plus.apply_to_monomial(m)
                down = gens.p_minus.apply_to_monomial(m)
                diag = f_of_p0(spec).apply_to_monomial(m)
                assert all(e == m + 1 for e in up.support())
                assert all(e == m - 1 for e in down.support())
                assert all(e == m for e in diag.support())


class TestCastCheck:
    def test_table_rows_cast(self):
        assert cast_check(HEUN_INSTANCE)

    def test_randomized_cast(self):
        rng = random.Random(12)
        for _ in range(25):
            assert cast_check(random_spec(rng))

    def test_perturbed_constant_fails(self):
        gens = build_generators(HEUN_INSTANCE)
        perturbed = gens.p_plus + f_of_p0(HEUN_INSTANCE) + DiffOp([(1, 0, 0)]) + gens.p_minus
        assert perturbed != full_operator(HEUN_INSTANCE)


class TestDeformation:
    def test_heun_c2_alpha(self):
        assert deformation_coefficients(HEUN_INSTANCE).alpha1 == -8

    def test_doubly_confluent_vanishing(self):
        spec = OdeSpec(a1=1, a4=-1, a5=2, a6=3, a7=-1, a8=1)
        coeffs = deformation_coefficients(spec)
        assert coeffs.alpha1 == 0 and coeffs.beta1 == 0

    def test_closed_form_equals_brute_force(self):
        rng = random.Random(13)
        for _ in range(25):
            spec = random_spec(rng)
            assert deformation_coefficients(spec) == brute_force_deformation(spec)

    def test_ladder_relations_all_specs(self):
        rng = random.Random(14)
        for _ in range(10):
            gens = build_generators(random_spec(rng))
            assert commutator(gens.p_zero, gens.p_plus) == gens.p_plus
            assert commutator(gens.p_zero, gens.p_minus) == -gens.p_minus

    def test_commutator_is_exact_operator_identity(self):
        rng = random.Random(15)
        for _ in range(5):
            spec = random_spec(rng)
            gens = build_generators(spec)
            f = deformation_coefficients(spec).as_poly()
            assert commutator(gens.p_plus, gens.p_minus) == poly_of_op(f, gens.p_zero)


class TestFitDiagonal:
    def test_recovers_f_of_p0(self):
        spec = with_fields(HEUN_INSTANCE, j=F(2, 3))
        fitted = fit_diagonal_polynomial(f_of_p0(spec), spec.j, 2)
        j = spec.j
        expected = (
            spec.a1 * j * j - (spec.a1 - spec.a5) * j + spec.a8,
            (2 * j - 1) * spec.a1 + spec.a5,
            spec.a1,
        )
        assert fitted == expected

    def test_zero_operator(self):
        assert fit_diagonal_polynomial(DiffOp(), 0, 3) == ()

    def test_non_diagonal_rejected(self):
        with pytest.raises(DiagonalFitError):
            fit_diagonal_polynomial(DiffOp([(1, 1, 0)]), 0, 2)

    def test_degree_overflow_rejected(self):
        with pytest.raises(DiagonalFitError):
            fit_diagonal_polynomial(f_of_p0(HEUN_INSTANCE), 0, 1)


class TestClassify:
    def test_table_one_classes(self):
        assert classify_deformation(HEUN_INSTANCE) == "cubic"
        confluent = OdeSpec(a1=1, a2=-1, a4=2, a5=0, a6=-1, a7=2)
        assert classify_deformation(confluent) == "quadratic"
        doubly = OdeSpec(a1=1, a4=-1, a5=1, a6=1, a7=-1)
        assert classify_deformation(doubly) == "linear"

    @pytest.mark.parametrize("j", [F(0), F(1, 2), F(1), F(7, 3)])
    def test_j_independence(self, j):
        rng = random.Random(16)
        for _ in range(10):
            spec = random_spec(rng, j=0)
            assert classify_deformation(with_fields(spec, j=j)) == classify_deformation(spec)

    def test_abelian_edge_case(self):
        spec = OdeSpec(a1=1, a4=-1, a5=1)  # no lowering part at all
        assert classify_deformation(spec) == "linear"
        assert is_abelian(spec)


class TestCasimir:
    def test_heun_instance_scalar(self):
        result = casimir(HEUN_INSTANCE, 10)
        assert result.is_scalar
        assert result.scalar == HEUN_INSTANCE.a6 * HEUN_INSTANCE.a7 == 2

    def test_a7_zero_scalar_zero(self):
        spec = HEUN_INSTANCE
        spec = OdeSpec(a0=spec.a0, a1=spec.a1, a2=spec.a2, a4=spec.a4,
                       a5=spec.a5, a6=spec.a6, a7=0, a8=spec.a8)
        assert casimir(spec, 10).scalar == 0

    def test_g_antidifference_property(self):
        spec = with_fields(HEUN_INSTANCE, j=F(1, 3))
        f = deformation_coefficients(spec).as_poly()
        g = casimir(spec).g_poly
        for n in (F(-2), F(0), F(5, 2), F(7)):
            assert poly_eval(g, n) - poly_eval(g, n - 1) == poly_eval(f, n)

    def test_casimir_commutes_exactly(self):
        rng = random.Random(17)
        for _ in range(5):
            spec = random_spec(rng)
            gens = build_generators(spec)
            c_op = casimir_operator(spec)
            assert commutator(c_op, gens.p_plus).is_zero()
            assert commutator(c_op, gens.p_minus).is_zero()
            assert commutator(c_op, gens.p_zero).is_zero()

    def test_scalar_action_on_monomials(self):
        spec = with_fields(HEUN_INSTANCE, j=F(1, 2))
        c_op = casimir_operator(spec)
        for m in range(8):
            image = c_op.apply_to_monomial(m)
            assert image == GeneralizedSeries.monomial(m, spec.a6 * spec.a7)


def test_sl2_special_case_recovery():
    for j in (F(0), F(1, 2), F(1), F(3, 2)):
        spec = OdeSpec(a4=1, a7=-2 * j, a6=1, j=j)
        gens = build_generators(spec)
        fitted = fit_diagonal_polynomial(
            commutator(gens.p_plus, gens.p_minus), j, 3
        )
        assert fitted == (F(0), F(-2))  # [J+, J-] = -2 P0


def test_ladder_cache_leaves_spec_identity_unchanged():
    warm, fresh = random_spec(random.Random(5)), random_spec(random.Random(5))
    warm.ladder_polys()
    assert warm == fresh
    assert hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)
    assert list(inspect.signature(OdeSpec).parameters) == [f"a{i}" for i in range(9)] + ["j"]
    assert with_fields(warm) == fresh


# -- the identities for every spec, proved on a product grid ---------------------------
#
# Each identity below compares two polynomials in the coefficients that its
# sides read.  A polynomial of degree at most t_i in each variable x_i that
# vanishes on a product S_1 x ... x S_n of sets with |S_i| > t_i is zero
# (Alon, "Combinatorial Nullstellensatz", Combin. Probab. Comput. 8 (1999) 7,
# Lemma 2.1), so agreement on such a grid proves the identity for every spec
# with a3 = 0.  Every side is computed exactly, by additions, multiplications
# and exact divisions by integer constants, so its value at a rational point
# is the value there of the polynomial the construction describes.

GRID_VARIABLES = ("a0", "a4", "a7", "a2", "a6")  # P+ reads a0, a4, a7; P- reads a2, a6


def grid_specs(values, j_values):
    """One spec per point of values^5 x j_values over (a0, a4, a7, a2, a6, j);
    a1, a5 and a8, which the deformation and the Casimir do not read, stay 0."""
    for point in itertools.product(values, repeat=len(GRID_VARIABLES)):
        for j in j_values:
            yield OdeSpec(j=j, **dict(zip(GRID_VARIABLES, point)))


def test_deformation_closed_form_holds_for_every_spec():
    """deformation_coefficients equals brute_force_deformation for every spec,
    shown on the 128 points of {0,1}^5 x {0,1,2,3}.

    Degree bounds, for each of alpha1..delta1 on either side:
    - [P+, P-] is bilinear in P+'s coefficients (a0, a4, a7) and P-'s
      (a2, a6), and so is each of the closed form's k0..k3, the cubic in m by
      which it acts on x^m: degree at most 1 in each of the five;
    - both sides rewrite that cubic in P0 = m - j by a Taylor shift by j,
      whose coefficients have degree at most 3 in j.
    So the difference has degree at most 1 in each a and 3 in j, and two
    values per a and four of j prove it zero.
    """
    points = 0
    for spec in grid_specs(range(2), range(4)):
        assert deformation_coefficients(spec) == brute_force_deformation(spec), spec
        points += 1
    assert points == 128


def test_casimir_identities_hold_for_every_spec():
    """casimir_operator(spec) = C commutes with P+, P0 and P-, equals a6 a7
    times the identity, and equals P- P+ + g(P0) with g = casimir(spec).g_poly,
    for every spec, shown on the 1,215 points of {0,1,2}^5 x {0,...,4}.

    Degree bounds, for each coefficient of the operators compared:
    - C = P- P+ + G(x D), G(m) = a6 a7 - R(m) L(m+1), is bilinear in P+'s
      and P-'s coefficients (R reads a0, a4, a7 and L reads a2, a6), and
      does not read j: degree at most 1 in each a;
    - so [C, P+] and [C, P-], each a difference of two products with a
      generator, have degree at most 2 in each a, and [C, P0] at most 1 in
      each a and in j, since P0 = x D - j; C - a6 a7 has at most 1 in each a;
    - g is G's Taylor shift by j, quartic, with its P0^k coefficient of degree
      at most 4 - k in j, and (x D - j)^k has degree k in j: P- P+ + g(P0)
      has degree at most 1 in each a and 4 in j.
    So three values per a and five of j prove each identity.
    """
    points = 0
    for spec in grid_specs(range(3), range(5)):
        gens = build_generators(spec)
        c_op = casimir_operator(spec)
        for generator in gens:
            assert commutator(c_op, generator).is_zero(), (spec, generator)
        assert c_op == DiffOp([(spec.a6 * spec.a7, 0, 0)]), spec
        g_of_p0 = poly_of_op(casimir(spec).g_poly, gens.p_zero)
        assert gens.p_minus.compose(gens.p_plus) + g_of_p0 == c_op, spec
        points += 1
    assert points == 1215


def test_cast_check_holds_for_every_spec():
    """cast_check(spec) is True for every spec with a3 = 0, shown on the 768
    points of {0,1}^8 x {0,1,2} over (a0, a1, a2, a4, a5, a6, a7, a8, j).

    Degree bounds, for each coefficient of P+ + F(P0) + P- - full_operator(spec),
    the operator cast_check tests for zero:
    - each coefficient of P+, P- and the full operator is one of a0..a8;
    - F(P0) = n2 P0^2 + n1 P0 + n0, where n_i, the coefficients of F's Taylor
      shift by j, F(s) = a1 s^2 + (a5 - a1) s + a8, are linear in (a1, a5, a8)
      and of degree at most 2 - i in j, and P0^i = (x D - j)^i has
      coefficients of degree i in j; so F(P0) has degree at most 1 in each of
      a1, a5, a8 and 2 in j.
    So the difference has degree at most 1 in each a and 2 in j, and two
    values per a and three of j prove it zero.
    """
    names = ("a0", "a1", "a2", "a4", "a5", "a6", "a7", "a8")
    points = 0
    for values in itertools.product(range(2), repeat=len(names)):
        for j in range(3):
            spec = OdeSpec(j=j, **dict(zip(names, values)))
            assert cast_check(spec), spec
            points += 1
    assert points == 768


def test_class_rule_holds_for_every_spec():
    """alpha1 = -4 a0 a2 for every spec, and beta1 does not depend on j where
    alpha1 = 0, so the class of [P+, P-] does not either; shown on the 128
    points of {0,1}^5 x {0,1,2,3}.

    Degree bounds, from the construction of deformation_coefficients: the
    m-coefficients k0..k3 by which [P+, P-] acts on x^m are bilinear in P+'s
    (a0, a4, a7) and P-'s (a2, a6) coefficients and carry no j, and the Taylor
    shift by j gives the P0^i coefficient degree at most 3 - i in j.
    - alpha1 + 4 a0 a2 has degree at most 1 in each a and 0 in j: two values
      per a prove it zero.
    - So alpha1 = 0 exactly where a0 = 0 or a2 = 0.  On a0 = 0,
      beta1(j) - beta1(0) is a polynomial in (a4, a7, a2, a6, j) of degree at
      most 1 in each a and 1 in j, and the grid points with a0 = 0 give two
      values per a and four of j; a2 = 0 likewise.
    """
    points = 0
    for spec in grid_specs(range(2), range(4)):
        coeffs = deformation_coefficients(spec)
        assert coeffs.alpha1 == -4 * spec.a0 * spec.a2, spec
        if coeffs.alpha1 == 0:
            assert coeffs.beta1 == deformation_coefficients(with_fields(spec, j=0)).beta1, spec
        assert classify_deformation(spec) == classify_deformation(with_fields(spec, j=0)), spec
        points += 1
    assert points == 128
