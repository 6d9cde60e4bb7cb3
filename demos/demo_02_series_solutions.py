# demo_02_series_solutions.py
#
# Indicial exponents, inverse-diagonal series iteration, and exact polynomial
# solutions, cross-checked against the independent oracles.

from fractions import Fraction as F

from heunalg import (
    OdeSpec,
    check_solvability,
    full_operator,
    hypergeometric_oracle,
    indicial_roots,
    nullspace_oracle,
    polynomial_solution,
    series_solution_with_report,
    termination_condition,
)

print("=" * 72)
print("1. Exactly solvable branch (no raising part)")
print("=" * 72)
# diagonal roots 1/3 and -3/2; lowering part a2 = 2, a6 = 1
lam1, lam2 = F(1, 3), F(-3, 2)
spec = OdeSpec(a1=6, a2=2, a5=6 * (1 - lam1 - lam2), a6=1, a8=6 * lam1 * lam2)
verdict = check_solvability(spec)
print("exactly solvable:", verdict.exactly_solvable,
      "  reduced form:", {k: str(v) for k, v in verdict.reduced_form})
roots = indicial_roots(spec)
print("indicial roots:", roots.lambda_plus, ",", roots.lambda_minus)

series, _ = series_solution_with_report(spec, roots.lambda_plus, 12)
oracle = hypergeometric_oracle(spec, roots.lambda_plus, 13)
print("series == two-term recurrence oracle (13 coefficients):", series == oracle)
print("first few rows (shift, exponent, coefficient):")
for m, c in sorted(series.items(), reverse=True)[:5]:
    print(f"  {m:>4}   {str(series.base + m):>8}   {c}")
residual = full_operator(spec).apply(series)
print("residual shifts after 12 iterations:", residual.shifts(), " (all beyond the horizon)")

print()
print("=" * 72)
print("2. Quasi-exactly solvable branch (no lowering part): truncation")
print("=" * 72)
spec2 = OdeSpec(a4=1, a7=-3, a5=1)
print("termination levels n with P+ x^(n-1) = 0:",
      [str(n) for n in termination_condition(spec2).values])
poly_series, _ = series_solution_with_report(spec2, 0, 12)
print("series from lambda=0 stops at degree 3:", poly_series.shifts())
print("exact null space on {1..x^3}:")
result = polynomial_solution(spec2, 3)
for vec in result.basis:
    print("  ", [str(c) for c in vec])
print("fraction-free oracle spans the same space:",
      len(nullspace_oracle(spec2, 3)) == len(result.basis))

print()
print("=" * 72)
print("3. Spectral values of a8 when no polynomial solution exists")
print("=" * 72)
spec3 = OdeSpec(a0=1, a1=1, a4=2, a5=1, a7=-6, a8=1)
res3 = polynomial_solution(spec3, 2)
print("null space dimension at a8 = 1:", len(res3.basis))
print("a8 values that make the square block singular:",
      [str(v) for v in res3.spectral_a8])
for a8 in res3.spectral_a8:
    moved = polynomial_solution(
        OdeSpec(a0=1, a1=1, a4=2, a5=1, a7=-6, a8=a8), 2)
    print(f"  at a8 = {a8}: dimension {len(moved.basis)}"
          + (f", basis {[[str(c) for c in v] for v in moved.basis]}" if moved.basis else ""))
