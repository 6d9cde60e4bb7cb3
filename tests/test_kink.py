"""The phi^6-kink pipeline, plus the analysis of its closed-form states.

The last test class documents a defect inherited with the closed-form
wavefunction displays: they do not satisfy the transformed fluctuation
equation they are attached to.  The exact nu^2 = 0 solution is the even zero
mode sqrt(a), and the s = 1/2 level terminates into a genuine polynomial
state only at eps^2 = 1/2 (factor zeta - 1/4, nu^2 = 9/2).  Those corrected
facts are verified here to residual levels the displays miss by orders of
magnitude.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from heunalg import (
    DegenerateKinkError,
    cast_check,
    deformation_coefficients,
    heun_spec,
    kink_algebra,
    kink_ground_state_check,
    kink_heun_reduction,
    kink_sigma_ode,
    kink_spec,
    kink_termination,
    kink_wavefunction,
    kink_zero_mode,
    polynomial_solution,
    psi_n2_sigma,
    psi_n3half_sigma,
    residual_sigma,
    sigma_of_x,
    state_from_factor,
)
from heunalg.polynomials import poly_eval

GRID = np.linspace(-10.0, 10.0, 401).tolist()


class TestSigmaOde:
    def test_values_at_origin(self):
        ode = kink_sigma_ode(F(1), F(3, 4))
        assert poly_eval(ode.a_poly, 0.0) == 1.0  # eps^2
        assert poly_eval(ode.b_poly, 0.0) == 0.0
        assert poly_eval(ode.c_poly, 0.0) == -1 + 2 * 1

    def test_values_at_one(self):
        for eps_sq in (F(1, 4), F(1), F(4)):
            ode = kink_sigma_ode(eps_sq, F(1, 2))
            assert poly_eval(ode.a_poly, 1.0) == 0.0
            assert poly_eval(ode.b_poly, 1.0) == 0.0
            assert poly_eval(ode.c_poly, 1.0) == float(-4 * (1 + eps_sq))

    def test_zero_mode_nu(self):
        assert kink_sigma_ode(F(1), F(0)).nu_sq == 0

    def test_degenerate_eps(self):
        with pytest.raises(DegenerateKinkError):
            kink_sigma_ode(F(0), F(1, 2))


def seeded_factor_cases():
    """120 pairs (factor of degree 0-5 with rational coefficients, sigma = k/1024 in (-1, 1))."""
    rng = random.Random(29)
    return [([F(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(rng.randint(1, 6))],
             F(rng.randint(-1023, 1023), 1024)) for _ in range(120)]


class TestStateFromFactor:
    """(1-zeta)^s f(zeta) against an exact evaluation.  At sigma = k/1024 both
    zeta = sigma^2 and 1 - zeta are exact doubles; the bound is relative to
    (1-zeta)^s sum |f_k| zeta^k, the scale a rounded evaluation can reach."""

    CASES = seeded_factor_cases()

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_integer_s_matches_exact_value(self, s):
        for factor, sigma in self.CASES:
            zeta = sigma * sigma
            exact = (1 - zeta) ** int(s) * poly_eval(factor, zeta)
            scale = (1 - zeta) ** int(s) * sum(abs(c) * zeta ** k for k, c in enumerate(factor))
            got = state_from_factor(s, factor)(float(sigma))
            assert abs(F(got) - exact) <= F(1e-14) * scale, (factor, sigma)

    def test_half_s_matches_sqrt(self):
        for factor, sigma in self.CASES:
            zeta = sigma * sigma
            root = math.sqrt(float(1 - zeta))
            want = root * float(poly_eval(factor, zeta))
            scale = root * float(sum(abs(c) * zeta ** k for k, c in enumerate(factor)))
            got = state_from_factor(0.5, factor)(float(sigma))
            assert abs(got - want) <= 1e-14 * scale, (factor, sigma)


class TestReduction:
    def test_s_half_eps_one(self):
        h = kink_heun_reduction(F(1), F(1, 2))
        assert (h.gamma, h.eps_h) == (F(1, 2), F(1, 2))
        assert h.delta == 2
        assert h.alpha == -3 and h.beta == 1
        assert h.a_sing == -1
        assert h.q == F(3, 2)

    def test_s_one(self):
        h = kink_heun_reduction(F(1), F(1))
        assert h.delta == 3 and h.beta == F(1, 2)

    def test_alpha_beta_equals_a7(self):
        h = kink_heun_reduction(F(1), F(1, 2))
        assert heun_spec(h).a7 == h.alpha * h.beta == -3


class TestKinkAlgebra:
    def test_alpha1_always_four(self):
        for eps_sq in (F(1, 4), F(1), F(4)):
            for s in (F(1, 4), F(1, 2), F(1)):
                for j in (F(0), F(1, 2), F(2)):
                    assert kink_algebra(eps_sq, s, j).coeffs.alpha1 == 4

    def test_beta1_sample(self):
        # 3(2*gamma + delta + eps - 2) at j=0, s=1/2
        assert kink_algebra(F(1), F(1, 2), 0).coeffs.beta1 == F(9, 2)

    def test_n2_is_minus_a_plus_one(self):
        for eps_sq in (F(1, 4), F(2)):
            h = kink_heun_reduction(eps_sq, F(1, 2))
            assert kink_algebra(eps_sq, F(1, 2)).n2 == -(h.a_sing + 1)

    def test_n_coefficients_against_display_forms(self):
        for eps_sq, s, j in ((F(1), F(1, 2), F(0)), (F(1, 4), F(1), F(3, 2))):
            h = kink_heun_reduction(eps_sq, s)
            alg = kink_algebra(eps_sq, s, j)
            a, g, d, e = h.a_sing, h.gamma, h.delta, h.eps_h
            mid = a - (g * (a + 1) + a * d + e) + 1
            assert alg.n1 == mid - 2 * j * (a + 1)
            assert alg.n0 == -(a + 1) * j * j + mid * j - h.q

    def test_round_trip_grid(self):
        for eps_sq in (F(1, 4), F(1), F(4)):
            for s in (F(1, 4), F(1, 2), F(1)):
                for j in (F(0), F(1, 2), F(2)):
                    spec = kink_spec(eps_sq, s, j)
                    assert cast_check(spec)
                    raw = deformation_coefficients(spec)
                    block = kink_algebra(eps_sq, s, j).coeffs
                    assert raw == block.scale(eps_sq)


class TestTermination:
    def test_exact_pairs(self):
        assert kink_termination() == ((F(3, 2), F(1)), (F(2), F(1, 2)))

    def test_no_unphysical_s(self):
        assert all(0 < s <= 1 for _, s in kink_termination())


class TestWavefunctions:
    def test_sigma_at_origin(self):
        assert sigma_of_x(1.0, 1.0, 0.0) == 0.0

    def test_n3half_odd_n2_even(self):
        for x in (0.3, 1.7, 4.0):
            assert kink_wavefunction("n3half", 1.0, 1.0, x) == pytest.approx(
                -kink_wavefunction("n3half", 1.0, 1.0, -x), abs=0
            )
            assert kink_wavefunction("n2", 1.0, 1.0, x) == pytest.approx(
                kink_wavefunction("n2", 1.0, 1.0, -x), abs=0
            )
        assert kink_wavefunction("n3half", 1.0, 1.0, 0.0) == 0.0

    def test_mu_scaling_bitwise(self):
        for mu in (0.5, 2.0, 3.75):
            for x in (0.1, 1.3, -2.2):
                for state in ("n2", "n3half"):
                    assert kink_wavefunction(state, 1.0, mu, x) == kink_wavefunction(
                        state, 1.0, 1.0, mu * x
                    )

    def test_profile_monotone_to_one(self):
        xs = np.linspace(0.1, 12.0, 60)
        sig = [sigma_of_x(1.0, 1.0, float(x)) for x in xs]
        assert all(b > a for a, b in zip(sig, sig[1:]))
        assert sig[-1] < 1.0

    def test_decay_at_large_x(self):
        for state in ("n2", "n3half"):
            tail = [abs(kink_wavefunction(state, 1.0, 1.0, float(x)))
                    for x in np.linspace(4.0, 12.0, 20)]
            assert all(b < a for a, b in zip(tail, tail[1:]))
            assert tail[-1] < tail[0] / 20


class TestProfileTails:
    """sinh(mu x/2)^2 overflows a double once |mu x/2| passes about 355."""

    @pytest.mark.parametrize("half", [400.0, 1000.0, 1e300])
    def test_far_tails_are_exact_limits(self, half):
        for mu in (1.0, 2.0):
            x = 2.0 * half / mu
            assert sigma_of_x(1.0, mu, x) == 1.0
            assert sigma_of_x(1.0, mu, -x) == -1.0
            for state in ("n2", "n3half"):
                for sign in (1.0, -1.0):
                    psi = kink_wavefunction(state, 1.0, mu, sign * x)
                    assert psi == 0.0

    def test_tails_with_large_a_stay_finite_and_monotone(self):
        # eps^2 = 1e-300 makes A about 1e300, so A/sinh^2 is not negligible
        # where A + sinh^2 overflows
        halves = [350.0 + 0.5 * k for k in range(21)] + [700.0, 800.0, 1e300]
        sig = [sigma_of_x(1e-300, 1.0, 2.0 * h) for h in halves]
        assert all(b >= a for a, b in zip(sig, sig[1:]))
        assert 0.9 < sig[0] < sig[-1] == 1.0
        for state in ("n2", "n3half"):
            tail = [kink_wavefunction(state, 1e-300, 1.0, 2.0 * h) for h in halves]
            assert all(0.0 <= b <= a for a, b in zip(tail, tail[1:]))
            assert tail[-1] == 0.0

    def test_eps_too_small_for_a_double_rejected(self):
        with pytest.raises(DegenerateKinkError, match="overflows a double"):
            sigma_of_x(1e-310, 1.0, 0.0)
        with pytest.raises(DegenerateKinkError):
            kink_wavefunction("n2", 1.0, float("inf"), 0.0)


class TestGroundStateChecks:
    def test_lowering_annihilates_sqrt_exactly(self):
        report = kink_ground_state_check(F(1))
        assert report.annihilates_sqrt

    def test_constant_also_in_kernel(self):
        report = kink_ground_state_check(F(1))
        assert report.annihilates_const
        assert report.kernel_dimension == 2

    def test_full_operator_eliminates_constant(self):
        report = kink_ground_state_check(F(1))
        assert report.constant_eliminated
        spec = kink_spec(F(1), F(1))
        image = report.full_op_on_const
        assert image.support().get(0, 0) == spec.a8
        assert image.support().get(1, 0) == spec.a7


class TestStateResiduals:
    """Numerical facts about the closed-form displays vs the actual solutions."""

    def test_closed_forms_fail_the_equation(self):
        # the shipped n2/n3half closed forms miss by O(1); recorded as fact
        for eps_sq in (F(1, 4), F(1), F(4)):
            ode2 = kink_sigma_ode(eps_sq, F(3, 4))
            r2 = residual_sigma(ode2, psi_n2_sigma(float(eps_sq)), GRID)
            assert r2.max_rel_residual > 1e-2
            ode3 = kink_sigma_ode(eps_sq, F(0))
            r3 = residual_sigma(ode3, psi_n3half_sigma(float(eps_sq)), GRID)
            assert r3.max_rel_residual > 1e-2

    def test_zero_mode_is_exact(self):
        for eps_sq in (F(1, 4), F(1), F(4)):
            ode = kink_sigma_ode(eps_sq, F(0))
            r = residual_sigma(ode, kink_zero_mode(float(eps_sq)), GRID)
            assert r.max_rel_residual < 1e-8

    def test_polynomial_state_exists_only_at_half(self):
        dims = {
            eps_sq: len(polynomial_solution(kink_spec(eps_sq, F(1, 2)), 1).basis)
            for eps_sq in (F(1, 4), F(1, 2), F(1), F(4))
        }
        assert dims == {F(1, 4): 0, F(1, 2): 1, F(1): 0, F(4): 0}

    def test_corrected_state_at_eps_half(self):
        basis = polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1).basis
        psi = state_from_factor(0.5, basis[0])
        ode = kink_sigma_ode(F(1, 2), F(3, 4))
        assert ode.nu_sq == F(9, 2)
        # interior grid: the sqrt(1-zeta) branch point at sigma = +-1 wrecks
        # finite differences near the edges even for this exact solution
        interior = np.linspace(-3.0, 3.0, 121).tolist()
        r = residual_sigma(ode, psi, interior)
        assert r.max_rel_residual < 1e-9
