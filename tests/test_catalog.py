"""Equation-family constructors and the classification table."""

from fractions import Fraction as F

import pytest

from heunalg import (
    HeunParams,
    NotCastableError,
    SingularPointCollisionError,
    biconfluent_heun_spec,
    catalog_rows,
    cast_check,
    classify_deformation,
    confluent_heun_spec,
    deformation_coefficients,
    doubly_confluent_spec,
    full_operator,
    heun_spec,
    jacobi_spec,
    kink_heun_reduction,
)


def test_heun_spec_from_kink_reduction():
    h = kink_heun_reduction(F(1), F(1, 2))
    spec = heun_spec(h)
    assert spec.a0 == 1 and spec.a2 == -1
    assert deformation_coefficients(spec).alpha1 == 4


def test_constant_term_readoff():
    h = HeunParams(gamma=F(1, 2), delta=F(1, 2), eps_h=F(1, 2),
                   a_sing=2, alpha=1, beta=2, q=F(5, 3))
    spec = heun_spec(h)
    image = full_operator(spec).apply_to_monomial(0)
    assert image.support().get(0, 0) == spec.a8 == -h.q


def test_singular_point_collision():
    with pytest.raises(SingularPointCollisionError):
        HeunParams(gamma=1, delta=1, eps_h=1, a_sing=0, alpha=1, beta=1, q=0)
    with pytest.raises(SingularPointCollisionError):
        HeunParams(gamma=1, delta=1, eps_h=1, a_sing=1, alpha=1, beta=1, q=0)


def test_confluent_sample_quadratic():
    spec = confluent_heun_spec(nu=2, gamma=1, delta=1, alpha=1, sigma=0)
    assert classify_deformation(spec) == "quadratic"
    assert cast_check(spec)


def test_biconfluent_sample_quadratic():
    spec = biconfluent_heun_spec(alpha=1, beta=0, gamma=3, delta=0)
    assert classify_deformation(spec) == "quadratic"
    assert spec.a0 == 0 and spec.a2 == 1
    assert cast_check(spec)


def test_doubly_confluent_linear():
    spec = doubly_confluent_spec(tau=1, nu=1, alpha=1, q=0)
    assert classify_deformation(spec) == "linear"


def test_jacobi_not_castable():
    spec = jacobi_spec(n=2, alpha=0, beta=0)
    assert spec.a3 == 1
    assert spec.a8 == 6
    with pytest.raises(NotCastableError):
        classify_deformation(spec)


def test_catalog_rows_match_expected_classes():
    rows = catalog_rows()
    assert [r.name for r in rows] == [
        "Heun", "Confluent Heun", "Bi-Confluent Heun", "Doubly Confluent", "Jacobi",
    ]
    for row in rows:
        if row.name == "Jacobi":
            assert row.matches is None
            assert row.conflict is not None and "casting conflict" in row.conflict
        else:
            assert row.matches is True, row


def test_catalog_specs_castable_except_jacobi():
    for row in catalog_rows():
        if row.name == "Jacobi":
            continue
        assert cast_check(row.spec)
