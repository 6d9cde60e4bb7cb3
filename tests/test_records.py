"""Value semantics of the result records and of OdeSpec and HeunParams.

The records are NamedTuples; OdeSpec and HeunParams are plain immutable
classes that coerce their inputs to Fraction.  The repr literals below are
the strings the frozen dataclasses these types replaced printed, so a change
of field order, field name or value form shows here.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from heunalg import (
    CatalogRow,
    HeunParams,
    OdeSpec,
    SingularPointCollisionError,
    casimir,
    catalog_rows,
    deformation_coefficients,
    indicial_roots,
    kink_algebra,
    kink_heun_reduction,
    kink_spec,
    kink_sigma_ode,
    kink_zero_mode,
    polynomial_solution,
    residual_sigma,
    termination_condition,
)
from support import exact_branch_spec

SPEC = OdeSpec(a0=1, a1="-3/2", a2=F(1, 2), a4=2, a7=-1, a8="1/3", j=F(2, 3))
KINK = kink_spec(F(1, 2), F(3, 4))


def test_reprs_are_those_of_the_dataclasses():
    assert repr(SPEC) == (
        "OdeSpec(a0=Fraction(1, 1), a1=Fraction(-3, 2), a2=Fraction(1, 2), a3=Fraction(0, 1), "
        "a4=Fraction(2, 1), a5=Fraction(0, 1), a6=Fraction(0, 1), a7=Fraction(-1, 1), "
        "a8=Fraction(1, 3), j=Fraction(2, 3))")
    assert repr(deformation_coefficients(SPEC)) == (
        "DeformationCoeffs(alpha1=Fraction(-2, 1), beta1=Fraction(-4, 1), "
        "gamma1=Fraction(-5, 3), delta1=Fraction(2, 27))")
    assert repr(casimir(SPEC)) == (
        "CasimirResult(g_poly=(Fraction(-5, 81), Fraction(-77, 54), Fraction(-10, 3), "
        "Fraction(-7, 3), Fraction(-1, 2)), scalar=Fraction(0, 1), is_scalar=True)")
    assert repr(indicial_roots(SPEC)) == (
        "IndicialRoots(lambda_plus=None, lambda_minus=None, discriminant=Fraction(17, 4), "
        "rational_part=Fraction(1, 2), irrational=True, degenerate=False)")
    assert repr(indicial_roots(exact_branch_spec(F(1, 2), F(3)))) == (
        "IndicialRoots(lambda_plus=Fraction(3, 1), lambda_minus=Fraction(1, 2), "
        "discriminant=Fraction(25, 4), rational_part=Fraction(7, 4), irrational=False, "
        "degenerate=False)")
    assert repr(kink_heun_reduction(F(1, 2), F(3, 4))) == (
        "HeunParams(gamma=Fraction(1, 2), delta=Fraction(5, 2), eps_h=Fraction(1, 2), "
        "a_sing=Fraction(-1, 2), alpha=Fraction(-13, 4), beta=Fraction(3, 4), "
        "q=Fraction(15, 32))")
    assert repr(kink_algebra(F(1, 2), F(3, 4))) == (
        "KinkAlgebra(coeffs=DeformationCoeffs(alpha1=Fraction(4, 1), beta1=Fraction(6, 1), "
        "gamma1=Fraction(-35, 8), delta1=Fraction(-39, 32)), n2=Fraction(-1, 2), "
        "n1=Fraction(1, 1), n0=Fraction(-15, 32))")
    assert repr(termination_condition(KINK)) == (
        "TerminationResult(values=(Fraction(7, 4),), all_n=False)")
    assert repr(polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1)) == (
        "PolynomialSolutionResult(degree=1, basis=((Fraction(-1, 4), Fraction(1, 1)),), "
        "spectral_a8=(), verified=True)")
    assert repr(polynomial_solution(KINK, 2)) == (
        "PolynomialSolutionResult(degree=2, basis=(), spectral_a8=(Fraction(0, 1),), "
        "verified=True)")


def one_record_per_module():
    """A result record of each module that defines one, with a field name."""
    ode = kink_sigma_ode(F(1, 2), F(3, 4))
    return [
        (deformation_coefficients(SPEC), "alpha1"),
        (catalog_rows()[0], "computed_class"),
        (kink_algebra(F(1, 2), F(3, 4)), "n0"),
        (termination_condition(KINK), "values"),
        (residual_sigma(ode, kink_zero_mode(0.5), [0.2, 0.5]), "excluded_points"),
    ]


def test_no_field_can_be_assigned_or_deleted():
    heun = kink_heun_reduction(F(1, 2), F(3, 4))
    values = [(SPEC, "a0"), (SPEC, "j"), (heun, "a_sing"), (heun, "q"), *one_record_per_module()]
    assert {type(value).__module__ for value, _ in values} == {
        "heunalg.algebra", "heunalg.catalog", "heunalg.kink", "heunalg.solvability",
        "heunalg.verify"}
    for value, name in values:
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, F(7))
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert repr(value) == before
    with pytest.raises(AttributeError):
        SPEC.extra = 1


def test_ode_spec_and_heun_params_coerce_int_and_str():
    spec = OdeSpec(a0=2, a5="-3/4", j="1/2")
    assert [type(c) for c in spec.coefficients()] == [F] * 9
    assert (spec.a0, spec.a5, spec.a8, spec.j) == (F(2), F(-3, 4), F(0), F(1, 2))
    assert OdeSpec(1, 2, 3) == OdeSpec(a0=F(1), a1=F(2), a2=F(3))
    heun = HeunParams(1, "1/2", F(1, 3), "2", 0, -1, "5/7")
    assert heun == HeunParams(gamma=F(1), delta=F(1, 2), eps_h=F(1, 3), a_sing=F(2),
                              alpha=F(0), beta=F(-1), q=F(5, 7))
    assert all(type(getattr(heun, name)) is F
               for name in ("gamma", "delta", "eps_h", "a_sing", "alpha", "beta", "q"))
    with pytest.raises(TypeError, match="exact rational"):
        OdeSpec(a0=0.5)
    with pytest.raises(TypeError, match="exact rational"):
        HeunParams(1, 1, 1, 0.5, 1, 1, 1)


def test_equal_specs_hash_equal_and_other_types_compare_unequal():
    same = OdeSpec(a0=F(1), a1=F(-3, 2), a2=F(1, 2), a4=F(2), a7=F(-1), a8=F(1, 3), j=F(2, 3))
    same.ladder_polys()  # a warm cache changes neither == nor hash
    assert same == SPEC and hash(same) == hash(SPEC)
    assert OdeSpec() == OdeSpec(*[0] * 10) and hash(OdeSpec()) == hash(OdeSpec(j="0"))
    assert SPEC != OdeSpec(a0=1, a1="-3/2", a2=F(1, 2), a4=2, a7=-1, a8="1/3")
    assert SPEC != SPEC.coefficients() + (SPEC.j,)
    assert SPEC.__eq__(object()) is NotImplemented
    heun = kink_heun_reduction(F(1, 2), F(3, 4))
    assert heun == copy.copy(heun) and hash(heun) == hash(copy.copy(heun))
    assert heun != SPEC


def test_copy_and_pickle_give_an_equal_spec():
    warm = OdeSpec(a0=1, a1="-3/2", a2=F(1, 2), a4=2, a7=-1, a8="1/3", j=F(2, 3))
    warm.ladder_polys()
    for spec in (SPEC, warm):
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
            assert twin.ladder_at(F(5, 2)) == spec.ladder_at(F(5, 2))
    heun = kink_heun_reduction(F(1, 2), F(3, 4))
    assert pickle.loads(pickle.dumps(heun)) == heun


@pytest.mark.parametrize("a_sing", [0, 1, "1", F(0)])
def test_heun_params_collision_error_is_unchanged(a_sing):
    with pytest.raises(SingularPointCollisionError,
                       match=f"^third singular point {F(a_sing)} collides with 0 or 1$"):
        HeunParams(gamma=1, delta=1, eps_h=1, a_sing=a_sing, alpha=1, beta=1, q=1)


def test_records_are_tuples():
    """The one API change from the dataclasses: a record is a tuple, so it
    unpacks, indexes and equals the plain tuple of its field values."""
    alpha1, beta1, gamma1, delta1 = deformation_coefficients(SPEC)
    assert (alpha1, delta1) == (F(-2), F(2, 27))
    result = termination_condition(KINK)
    assert result == ((F(7, 4),), False) and result[1] is result.all_n
    row = catalog_rows()[0]
    assert isinstance(row, CatalogRow) and row._fields == (
        "name", "sample", "spec", "expected_class", "computed_class", "conflict")
    assert CatalogRow(*row) == row and row.matches is True
