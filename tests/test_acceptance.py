"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Criterion 7 asserts the closed-form kink states against the
fluctuation equation at the stated 1e-8 tolerance; those displays do not
satisfy the equation (see tests/test_kink.py::TestStateResiduals for the
quantified analysis and the corrected facts), so that criterion fails and is
left failing deliberately rather than weakened.
"""

import random
from fractions import Fraction as F

import numpy as np

from heunalg import (
    OdeSpec,
    brute_force_deformation,
    build_generators,
    casimir,
    casimir_operator,
    catalog_rows,
    commutator,
    deformation_coefficients,
    fit_diagonal_polynomial,
    full_operator,
    hypergeometric_oracle,
    kink_algebra,
    kink_ground_state_check,
    kink_sigma_ode,
    kink_spec,
    kink_termination,
    nullspace_oracle,
    polynomial_solution,
    psi_n2_sigma,
    psi_n3half_sigma,
    residual_sigma,
    series_solution_with_report,
    state_from_factor,
)

GRID_401 = np.linspace(-10.0, 10.0, 401).tolist()


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} ({name}): {status}{suffix}")
    return ok


def _random_spec(rng) -> OdeSpec:
    def frac():
        return F(rng.randint(-20, 20), rng.randint(1, 4))

    return OdeSpec(a0=frac(), a1=frac(), a2=frac(), a4=frac(), a5=frac(),
                   a6=frac(), a7=frac(), a8=frac(), j=frac())


def _rref(basis, cols):
    rows = [list(v) for v in basis]
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def _same_span(basis_a, basis_b, degree):
    return _rref(basis_a, degree + 1) == _rref(basis_b, degree + 1)


def test_criterion_1_commutator_closed_form():
    rng = random.Random(100)
    ok = all(
        deformation_coefficients(spec) == brute_force_deformation(spec)
        for spec in (_random_spec(rng) for _ in range(100))
    )
    assert _report(1, "commutator closed form vs brute force, 100 specs", ok)


def test_criterion_2_table_reproduction():
    rows = {r.name: r for r in catalog_rows()}
    ok = (
        rows["Heun"].computed_class == "cubic"
        and rows["Confluent Heun"].computed_class == "quadratic"
        and rows["Bi-Confluent Heun"].computed_class == "quadratic"
        and rows["Doubly Confluent"].computed_class == "linear"
        and rows["Jacobi"].computed_class is None
        and rows["Jacobi"].conflict is not None
    )
    assert _report(2, "family table classes + Jacobi conflict", ok)


def test_criterion_3_casimir():
    ok = True
    for row in catalog_rows():
        if row.name == "Jacobi":
            continue
        spec = row.spec
        result = casimir(spec, m_range=10)
        ok &= result.is_scalar and result.scalar == spec.a6 * spec.a7
        gens = build_generators(spec)
        c_op = casimir_operator(spec)
        ok &= commutator(c_op, gens.p_plus).is_zero()
        ok &= commutator(c_op, gens.p_minus).is_zero()
        for m in range(11):
            image = c_op.apply_to_monomial(m)
            ok &= image.support() == {F(m): spec.a6 * spec.a7} or (
                spec.a6 * spec.a7 == 0 and image.is_zero()
            )
    assert _report(3, "Casimir scalar a6*a7 and commutation", ok)


def test_criterion_4_sl2_recovery():
    ok = True
    for j in (F(0), F(1, 2), F(1), F(3, 2)):
        spec = OdeSpec(a4=1, a7=-2 * j, a6=1, j=j)
        gens = build_generators(spec)
        fitted = fit_diagonal_polynomial(commutator(gens.p_plus, gens.p_minus), j, 3)
        ok &= fitted == (F(0), F(-2))
    assert _report(4, "sl(2) special case gives -2 P0", ok)


def test_criterion_5_kink_algebra_grid():
    ok = True
    for eps_sq in (F(1, 4), F(1), F(4)):
        for s in (F(1, 4), F(1, 2), F(1)):
            for j in (F(0), F(1, 2), F(2)):
                alg = kink_algebra(eps_sq, s, j)  # raises on closed-form mismatch
                ok &= alg.coeffs.alpha1 == 4
                spec = kink_spec(eps_sq, s, j)
                ok &= deformation_coefficients(spec) == alg.coeffs.scale(eps_sq)
                ok &= brute_force_deformation(spec) == alg.coeffs.scale(eps_sq)
    assert _report(5, "kink algebra alpha1 = 4 over 3x3x3 grid", ok)


def test_criterion_6_termination_pairs():
    ok = kink_termination() == ((F(3, 2), F(1)), (F(2), F(1, 2)))
    assert _report(6, "termination pairs exactly {(2,1/2),(3/2,1)}", ok)


def test_criterion_7_wavefunction_residuals():
    ok = True
    worst = 0.0
    for eps_sq in (F(1, 4), F(1), F(4)):
        r2 = residual_sigma(
            kink_sigma_ode(eps_sq, F(3, 4)), psi_n2_sigma(float(eps_sq)), GRID_401
        )
        r3 = residual_sigma(
            kink_sigma_ode(eps_sq, F(0)), psi_n3half_sigma(float(eps_sq)), GRID_401
        )
        ok &= r2.max_rel_residual < 1e-8 and r3.max_rel_residual < 1e-8
        worst = max(worst, r2.max_rel_residual, r3.max_rel_residual)
        perturbed = residual_sigma(
            kink_sigma_ode(eps_sq, F(3, 4) + F(1, 4) / (1 + eps_sq)),
            psi_n2_sigma(float(eps_sq)),
            GRID_401,
        )
        ok &= perturbed.max_rel_residual > 1e-2
    assert _report(
        7,
        "closed-form state residuals < 1e-8",
        ok,
        detail=f"worst measured {worst:.3e}; see tests/test_kink.py TestStateResiduals",
    )


def test_criterion_8_ground_state_checks():
    report = kink_ground_state_check(F(1))
    spec = kink_spec(F(1), F(1))
    ok = (
        report.annihilates_sqrt
        and report.annihilates_const
        and report.kernel_dimension == 2
        and report.constant_eliminated
        and report.full_op_on_const.support().get(0, 0) == spec.a8
        and report.full_op_on_const.support().get(1, 0) == spec.a7
    )
    assert _report(8, "lowering kernel {1, z^(1/2)} and constant elimination", ok)


def test_criterion_9_series_oracle_equivalence():
    rng = random.Random(109)
    ok = True
    produced = 0
    while produced < 20:
        lam1 = F(rng.randint(-5, 5), rng.randint(1, 4))
        lam2 = lam1 + F(2 * rng.randint(1, 9), 2 * rng.randint(1, 4) + 1)
        if (lam1 - lam2).denominator == 1:
            continue
        spec = OdeSpec(
            a1=F(rng.randint(1, 4)),
            a2=F(rng.randint(1, 5)),
            a6=F(rng.randint(-4, 4)),
        )
        spec = OdeSpec(
            a1=spec.a1, a2=spec.a2,
            a5=spec.a1 * (1 - lam1 - lam2),
            a6=spec.a6,
            a8=spec.a1 * lam1 * lam2,
        )
        series, _ = series_solution_with_report(spec, lam1, 30, horizon=30)
        ok &= series == hypergeometric_oracle(spec, lam1, 31)
        residual = full_operator(spec).apply(series)
        ok &= all(abs(m) > 29 for m in residual.shifts())
        produced += 1
    assert _report(9, "series == oracle for 30 coefficients, 20 specs", ok)


def test_criterion_10_polynomial_nullspace_agreement():
    rng = random.Random(110)
    ok = True
    # span agreement on the kink instances and randomized specs
    kink_cases = [(kink_spec(e2, s), 1) for e2 in (F(1, 4), F(1, 2), F(1), F(4))
                  for s in (F(1, 2), F(1))]
    random_cases = []
    for _ in range(20):
        random_cases.append((
            OdeSpec(
                a0=F(rng.randint(-3, 3)), a1=F(rng.randint(-3, 3)),
                a2=F(rng.randint(-3, 3)), a4=F(rng.randint(-3, 3)),
                a5=F(rng.randint(-3, 3)), a6=F(rng.randint(-3, 3)),
                a7=F(rng.randint(-3, 3)), a8=F(rng.randint(-3, 3)),
            ),
            rng.randint(0, 4),
        ))
    for spec, degree in kink_cases + random_cases:
        direct = polynomial_solution(spec, degree).basis
        oracle = nullspace_oracle(spec, degree)
        ok &= _same_span(direct, oracle, degree)
    # the s = 1/2 level is a genuine one-dimensional state at eps^2 = 1/2;
    # its factor, verified against the fluctuation equation, is zeta - 1/4
    special = polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1)
    ok &= len(special.basis) == 1 and special.verified
    if special.basis:
        c0, c1 = special.basis[0]
        ok &= c1 != 0 and c0 / c1 == F(-1, 4)
        psi = state_from_factor(0.5, special.basis[0])
        interior = np.linspace(-3.0, 3.0, 121).tolist()
        check = residual_sigma(kink_sigma_ode(F(1, 2), F(3, 4)), psi, interior)
        ok &= check.max_rel_residual < 1e-8
    assert _report(10, "polynomial null spaces agree; kink factor verified", ok)
