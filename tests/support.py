"""Helpers that more than one test module uses; pytest collects no tests here."""

import inspect
from fractions import Fraction
from fractions import Fraction as F
from typing import Sequence

from heunalg import DiffOp, OdeSpec, build_generators, poly_of_op
from heunalg.algebra import diagonal_coefficients
from heunalg.polynomials import Poly, poly


def exact_branch_spec(lam1, lam2, a1=F(1), a2=F(1), a6=F(3)):
    """No-raising-part spec whose diagonal roots are lam1, lam2."""
    return OdeSpec(
        a1=a1, a2=a2,
        a5=a1 * (1 - lam1 - lam2),
        a6=a6,
        a8=a1 * lam1 * lam2,
    )


def with_fields(spec, **changes):
    """spec with the named fields changed, rebuilt through OdeSpec's constructor
    from every parameter it takes."""
    fields = {name: getattr(spec, name) for name in inspect.signature(OdeSpec).parameters}
    return OdeSpec(**{**fields, **changes})


def f_of_p0(spec):
    """The diagonal part F(P0) as a DiffOp, composed from P0 by poly_of_op, the
    public Horner path; cast_check runs the same Horner on integer pairs and
    makes no such DiffOp."""
    return poly_of_op(diagonal_coefficients(spec), build_generators(spec).p_zero)


def reference_commutator(a, b):
    """[a, b] as two compositions and an operator difference."""
    return a.compose(b) - b.compose(a)


def reference_operator_horner(p, op):
    """p(op), p ascending, by Horner's rule on operators: compose with op, then
    add the next coefficient as a constant operator."""
    result = DiffOp()
    for c in reversed(poly(p)):
        result = result.compose(op) + DiffOp([(c, 0, 0)])
    return result


def reference_falling_factorial(sigma, k):
    """sigma(sigma-1)...(sigma-k+1) as a product of Fractions; 1 at k = 0."""
    out = F(1)
    for i in range(k):
        out *= sigma - i
    return out


def reference_interpolate(points):
    """Lagrange interpolation: a chain of poly_mul per node, O(n^3)."""
    result = ()
    for i, (xi, yi) in enumerate(points):
        basis = (F(1),)
        denom = F(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            basis = poly_mul(basis, (-xk, F(1)))
            denom *= xi - xk
        result = poly_add(result, poly_scale(basis, yi / denom))
    return result


# Fraction polynomial arithmetic, which only the test references use; the
# package builds its polynomials in integers.


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return poly(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_scale(p: Sequence[Fraction], factor: Fraction) -> Poly:
    return poly(factor * c for c in p)


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)
