# demo_03_kink_spectrum.py
#
# The phi^6-kink fluctuation problem: transformed equation, Heun reduction,
# the eps-independent cubic algebra, termination levels, and a numerical
# audit of the closed-form states against the equation they should solve.
# The audit is the interesting part: the traditional closed forms FAIL, the
# even zero mode sqrt(a) passes, and the s = 1/2 polynomial state exists
# only at eps^2 = 1/2.

from fractions import Fraction as F

from heunalg import (
    kink_algebra,
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

EPS_SQ = F(1)


def linspace(lo, hi, n):
    """n evenly spaced points from lo to hi, built as `heunalg kink` builds its grid."""
    step = (hi - lo) / (n - 1)
    return [k * step + lo for k in range(n - 1)] + [hi]


print("=" * 72)
print("1. Transformed equation and Heun reduction (eps^2 = 1)")
print("=" * 72)
ode = kink_sigma_ode(EPS_SQ, F(3, 4))
print("a(sigma) coefficients:", [str(c) for c in ode.a_poly])
print("b(sigma) coefficients:", [str(c) for c in ode.b_poly])
print("c(sigma) coefficients:", [str(c) for c in ode.c_poly])
print("nu^2 at omega^2/mu^2 = 3/4:", ode.nu_sq)

h = kink_heun_reduction(EPS_SQ, F(1, 2))
print("\nHeun parameters at s = 1/2:")
print(f"  gamma = {h.gamma}, delta = {h.delta}, eps = {h.eps_h}, a = {h.a_sing},")
print(f"  alpha = {h.alpha}, beta = {h.beta}, q = {h.q}")

alg = kink_algebra(EPS_SQ, F(1, 2))
print("\nunit-normalized cubic algebra (eps-independent):")
print(f"  alpha1 = {alg.coeffs.alpha1}, beta1 = {alg.coeffs.beta1},",
      f"gamma1 = {alg.coeffs.gamma1}, delta1 = {alg.coeffs.delta1}")
print(f"  diagonal part: n2 = {alg.n2}, n1 = {alg.n1}, n0 = {alg.n0}")

print("\ntermination levels (n, s):", [(str(n), str(s)) for n, s in kink_termination()])

print()
print("=" * 72)
print("2. Profile and closed-form states on a grid")
print("=" * 72)
print(f"{'x':>6} {'sigma':>12} {'psi_n2':>12} {'psi_n3half':>12}")
for x in (-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0):
    print(f"{x:>6} {sigma_of_x(1.0, 1.0, x):>12.6f}"
          f" {kink_wavefunction('n2', 1.0, 1.0, x):>12.6f}"
          f" {kink_wavefunction('n3half', 1.0, 1.0, x):>12.6f}")

print()
print("=" * 72)
print("3. Residual audit: who actually solves the equation?")
print("=" * 72)
grid = linspace(-10.0, 10.0, 401)
for eps_sq in (F(1, 4), F(1), F(4)):
    ode_n2 = kink_sigma_ode(eps_sq, F(3, 4))
    ode_zero = kink_sigma_ode(eps_sq, F(0))
    r_n2 = residual_sigma(ode_n2, psi_n2_sigma(float(eps_sq)), grid)
    r_n3 = residual_sigma(ode_zero, psi_n3half_sigma(float(eps_sq)), grid)
    r_zm = residual_sigma(ode_zero, kink_zero_mode(float(eps_sq)), grid)
    print(f"eps^2 = {str(eps_sq):>4}:  closed-form n2      -> {r_n2.max_rel_residual:9.2e}")
    print(f"              closed-form n3half  -> {r_n3.max_rel_residual:9.2e}")
    print(f"              zero mode sqrt(a)   -> {r_zm.max_rel_residual:9.2e}   (true nu^2=0 state)")

print()
print("The s = 1/2 level admits a polynomial state only where the null space")
print("of the Heun operator on {1, zeta} is nontrivial:")
for eps_sq in (F(1, 4), F(1, 2), F(1), F(4)):
    dim = len(polynomial_solution(kink_spec(eps_sq, F(1, 2)), 1).basis)
    print(f"  eps^2 = {str(eps_sq):>4}: dimension {dim}")

basis = polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1).basis
print("\nat eps^2 = 1/2 the factor is", [str(c) for c in basis[0]],
      "i.e. f(zeta) = zeta - 1/4, with nu^2 = 9/2:")
psi = state_from_factor(0.5, basis[0])
interior = linspace(-3.0, 3.0, 121)
r = residual_sigma(kink_sigma_ode(F(1, 2), F(3, 4)), psi, interior)
print(f"  interior residual of (1-zeta)^(1/2) (zeta-1/4): {r.max_rel_residual:.2e}")
