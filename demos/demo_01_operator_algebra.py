# demo_01_operator_algebra.py
#
# Build the ladder operators of a Heun-class equation, verify the closed
# cubic algebra exactly, and compute the Casimir.  Everything here is exact
# rational arithmetic; no tolerance appears anywhere.

import itertools
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
    fit_diagonal_polynomial,
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
bracket = commutator(gens.p_plus, gens.p_minus)
print("  [P+, P-] =", bracket)
print("  read back as a cubic in P0 (ascending):",
      [str(c) for c in fit_diagonal_polynomial(bracket, spec.j, 3)])
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

print()
print("=" * 72)
print("4. Identities that hold for every spec, proved on product grids")
print("=" * 72)
# Each identity equates two polynomials in the coefficients (and j), of known
# degree in each variable; agreement on a product grid with more points per
# variable than that degree proves it for every spec with a3 = 0 (Alon,
# Combinatorial Nullstellensatz, Lemma 2.1).  tests/test_algebra.py derives
# each degree bound and checks each grid exactly.
GRID_PROOFS = (
    ("[P+, P-]: closed form = brute-force fit", 128, "{0,1}^5 x {0..3} over a0 a4 a7 a2 a6, j"),
    ("Casimir commutes with P+, P0, P-, equals a6 a7, = P- P+ + g(P0)", 1215,
     "{0,1,2}^5 x {0..4} over a0 a4 a7 a2 a6, j"),
    ("cast check: P+ + F(P0) + P- = full operator", 768, "{0,1}^8 x {0,1,2} over a0..a8 but a3, j"),
    ("class rule: alpha1 = -4 a0 a2; beta1, class j-free where alpha1 = 0", 128,
     "{0,1}^5 x {0..3} over a0 a4 a7 a2 a6, j"),
)
for identity, points, grid in GRID_PROOFS:
    print(f"  {identity}\n      {points:>5} points of {grid}")
grid = [OdeSpec(j=j, **dict(zip(("a0", "a4", "a7", "a2", "a6"), point)))
        for point in itertools.product(range(2), repeat=5) for j in range(4)]
print(f"closed form = brute force on all {len(grid)} points of the first grid, run now:",
      all(deformation_coefficients(s) == brute_force_deformation(s) for s in grid))
