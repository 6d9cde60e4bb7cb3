"""Residual evaluator and the two independent exact oracles."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from heunalg import (
    OdeSpec,
    ResonantExponentError,
    hypergeometric_oracle,
    kink_sigma_ode,
    kink_spec,
    kink_zero_mode,
    nullspace_oracle,
    polynomial_solution,
    residual_sigma,
    series_solution_with_report,
)
from heunalg.kink import SigmaOde
from heunalg.polynomials import poly_eval
from heunalg.verify import _float_coeffs
from support import exact_branch_spec

GRID = np.linspace(-10.0, 10.0, 401).tolist()


class TestResidualSigma:
    def test_zero_function(self):
        ode = kink_sigma_ode(F(1), F(0))
        r = residual_sigma(ode, lambda s: 0.0, GRID)
        assert r.max_abs_residual == 0.0 and r.max_rel_residual == 0.0

    def test_zero_mode_residual_small(self):
        ode = kink_sigma_ode(F(1), F(0))
        r = residual_sigma(ode, kink_zero_mode(1.0), GRID)
        assert r.max_rel_residual < 1e-8

    def test_sensitivity_to_wrong_nu(self):
        # shifting nu^2 by 1 turns an exact solution into a loud failure
        ode = kink_sigma_ode(F(1), F(1, 8))  # nu^2 = 1 instead of 0
        r = residual_sigma(ode, kink_zero_mode(1.0), GRID)
        assert r.max_rel_residual > 1e-2

    def test_grid_guard_excludes_edge_points(self):
        ode = kink_sigma_ode(F(1), F(0))
        r = residual_sigma(ode, kink_zero_mode(1.0), [-12.0, -10.0, 0.0, 10.0, 12.0])
        assert r.excluded_points >= 2
        assert all(abs(s) < 1.0 - 1e-3 for s in r.grid)

    def test_fd_convergence_until_floor(self):
        # halving h from a coarse start reduces the residual on a true
        # solution until the roundoff floor near 1e-10
        ode = kink_sigma_ode(F(1), F(0))
        zm = kink_zero_mode(1.0)
        levels = [
            residual_sigma(ode, zm, GRID, h=h).max_rel_residual
            for h in (0.16, 0.08, 0.04, 0.02)
        ]
        assert all(b < a for a, b in zip(levels, levels[1:]))
        floor = residual_sigma(ode, zm, GRID, h=0.01).max_rel_residual
        assert floor < 1e-10


    def test_float_copies_evaluate_like_the_fractions(self):
        """poly_eval on _float_coeffs' copies gives the bits poly_eval gives on the
        Fraction coefficients at a float point, and a coefficient past the double
        range, whose conversion overflows there, gives a non-finite value."""
        rng = random.Random(3003)
        odes = [kink_sigma_ode(eps_sq, F(3, 4)) for eps_sq in (F(1, 4), F(1, 2), F(1), F(4))]
        polys = [p for ode in odes for p in (ode.a_poly, ode.b_poly, ode.c_poly)]
        for _ in range(40):
            polys.append(tuple(F(rng.randint(-2**64, 2**64), rng.randint(1, 2**64))
                               for _ in range(rng.randint(0, 6))))
        for p in polys:
            copy = _float_coeffs(p)
            for sigma in [rng.uniform(-1, 1) for _ in range(50)] + [0.0, -0.0]:
                assert float(poly_eval(copy, sigma)).hex() == float(poly_eval(p, sigma)).hex(), (p, sigma)
        for huge in (F(10**400, 3), -F(10**400, 3)):
            for p in ((huge,), (F(1), huge), (huge, F(0), F(2))):
                with pytest.raises(OverflowError):
                    poly_eval(p, 0.5)
                assert not any(math.isfinite(poly_eval(_float_coeffs(p), s)) for s in (-0.5, 0.0, 0.5))

    def test_coefficient_past_the_double_range_excludes_every_point(self):
        base = kink_sigma_ode(F(1, 2), F(3, 4))
        for field in ("a_poly", "b_poly", "c_poly"):
            polys = {name: getattr(base, name) for name in ("a_poly", "b_poly", "c_poly")}
            polys[field] = polys[field] + (F(10**400, 3),)
            ode = SigmaOde(base.eps_sq, polys["a_poly"], polys["b_poly"], polys["c_poly"], base.nu_sq)
            r = residual_sigma(ode, kink_zero_mode(0.5), GRID)
            assert r.grid == () and r.excluded_points == len(GRID), field
            assert r.max_abs_residual == r.max_rel_residual == 0.0


class TestHypergeometricOracle:
    def test_requires_exact_branch(self):
        with pytest.raises(ValueError):
            hypergeometric_oracle(kink_spec(F(1), F(1, 2)), 1, 5)
        # the two-term relation has no a3 x^(lam+k-2) term: on this spec the series
        # it would return leaves a residual at shifts -7..-2, four inside its rows -5..0
        spec = OdeSpec(a1=1, a2=1, a3=1, a5=1 - F(1, 3) - F(7, 5), a6=3, a8=F(7, 15))
        with pytest.raises(ValueError, match="a3 = "):
            hypergeometric_oracle(spec, F(1, 3), 6)

    def test_non_indicial_seed_rejected(self):
        spec = exact_branch_spec(F(1, 2), F(-1, 3))
        with pytest.raises(ValueError):
            hypergeometric_oracle(spec, F(1, 5), 5)

    def test_truncation_when_numerator_vanishes(self):
        # lowering bracket roots at 0 and 1 - a6/a2; descent from lam stops
        spec = OdeSpec(a1=1, a2=2, a5=3, a6=1, a8=-3)  # diagonal roots 1, -3
        series = hypergeometric_oracle(spec, 1, 30)
        assert series.shifts() == (-1, 0)  # stops at exponent 0

    def test_resonance_mirrors_series_solution(self):
        spec = OdeSpec(a1=1, a2=1, a5=-1, a6=3)  # roots 2 and 0
        with pytest.raises(ResonantExponentError):
            hypergeometric_oracle(spec, 2, 10)
        with pytest.raises(ResonantExponentError):
            series_solution_with_report(spec, 2, 10)

    def test_matches_series_solution(self):
        rng = random.Random(31)
        done = 0
        while done < 6:
            lam1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            lam2 = lam1 + F(2 * rng.randint(1, 7), 2 * rng.randint(1, 3) + 1)
            if (lam1 - lam2).denominator == 1:
                continue
            spec = exact_branch_spec(lam1, lam2, a2=F(rng.randint(1, 5)),
                                     a6=F(rng.randint(-4, 4)))
            series, _ = series_solution_with_report(spec, lam1, 30, horizon=30)
            assert series == hypergeometric_oracle(spec, lam1, 31)
            done += 1


class TestNullspaceOracle:
    def test_kink_special_matches_polynomial_solution(self):
        spec = kink_spec(F(1, 2), F(1, 2))
        oracle = nullspace_oracle(spec, 1)
        direct = polynomial_solution(spec, 1).basis
        assert len(oracle) == len(direct) == 1
        a, b = oracle[0], direct[0]
        assert a[0] * b[1] == a[1] * b[0]  # same ray

    def test_generic_empty(self):
        spec = kink_spec(F(1), F(1, 2))
        assert nullspace_oracle(spec, 1) == ()

    def test_diagonal_constants(self):
        basis = nullspace_oracle(OdeSpec(a1=1, a5=1), 2)
        assert any(v[0] != 0 and v[1] == v[2] == 0 for v in basis)

    def test_span_agreement_randomized(self):
        rng = random.Random(32)
        for _ in range(20):
            spec = OdeSpec(
                a0=F(rng.randint(-3, 3)), a1=F(rng.randint(-3, 3)),
                a2=F(rng.randint(-3, 3)), a4=F(rng.randint(-3, 3)),
                a5=F(rng.randint(-3, 3)), a6=F(rng.randint(-3, 3)),
                a7=F(rng.randint(-3, 3)), a8=F(rng.randint(-3, 3)),
            )
            degree = rng.randint(0, 4)
            assert _span_key(nullspace_oracle(spec, degree), degree) == _span_key(
                polynomial_solution(spec, degree).basis, degree
            )


def _span_key(basis, degree):
    """Canonical row-reduced form of a rational basis, for span comparison."""
    rows = [list(v) for v in basis]
    cols = degree + 1
    pivots = []
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
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r])
