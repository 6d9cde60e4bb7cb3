# demo_01_operator_algebra.py
#
# Build the ladder operators of a Heun-class equation, verify the closed
# cubic algebra exactly, and compute the Casimir.  Everything here is exact
# rational arithmetic; no tolerance appears anywhere.

from fractions import Fraction as F

from heunalg import (
    OdeSpec,
    brute_force_deformation,
    build_generators,
    casimir,
    casimir_operator,
    cast_check,
    catalog_rows,
    classify_deformation,
    commutator,
    deformation_coefficients,
    poly_of_op,
    sl2_generators,
)
from heunalg.algebra import diagonal_coefficients

print("=" * 72)
print("1. The undeformed triple")
print("=" * 72)
g = sl2_generators(F(1))
print("J+ =", g.p_plus)
print("J0 =", g.p_zero)
print("J- =", g.p_minus)
print("[J+, J-]      =", commutator(g.p_plus, g.p_minus), "   (= -2 J0)")
print("[J0, J+] - J+ =", commutator(g.p_zero, g.p_plus) - g.p_plus)
print("J+ x^2        =", g.p_plus.apply_to_monomial(2), "  (highest weight at j=1)")

print()
print("=" * 72)
print("2. A Heun family member: c=2, gamma=delta=eps=1/2, alpha=1, beta=2, q=1")
print("=" * 72)
spec = OdeSpec(a0=1, a1=-3, a2=2, a4=F(3, 2), a5=-3, a6=1, a7=2, a8=-1)
gens = build_generators(spec)
print("P+    =", gens.p_plus)
print("P0    =", gens.p_zero)
print("P-    =", gens.p_minus)
print("F(P0) =", poly_of_op(diagonal_coefficients(spec), gens.p_zero))
print("cast check (P+ + F + P- == original operator):", cast_check(spec))

coeffs = deformation_coefficients(spec)
print()
print("closed-form commutator polynomial  [P+, P-] = f(P0):")
print("  alpha1 =", coeffs.alpha1, " beta1 =", coeffs.beta1,
      " gamma1 =", coeffs.gamma1, " delta1 =", coeffs.delta1)
print("brute-force normal-ordered fit agrees exactly:",
      brute_force_deformation(spec) == coeffs)
print("classification:", classify_deformation(spec))

cas = casimir(spec)
print()
print("Casimir C = P- P+ + g(P0):")
print("  g =", [str(c) for c in cas.g_poly], "(ascending)")
print("  scalar on every x^m:", cas.scalar, " (a6*a7 =", spec.a6 * spec.a7, ")")
print("  is_scalar:", cas.is_scalar)
c_op = casimir_operator(spec)
print("  [C, P+] =", commutator(c_op, gens.p_plus))
print("  [C, P-] =", commutator(c_op, gens.p_minus))

print()
print("=" * 72)
print("3. The whole family at the documented sample parameters")
print("=" * 72)
for row in catalog_rows():
    label = row.computed_class or f"({row.conflict})"
    flag = "" if row.matches in (True, None) else "  <-- MISMATCH"
    print(f"{row.name:<20} expected {row.expected_class:<10} computed {label}{flag}")
