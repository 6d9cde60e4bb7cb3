"""The spectral step of polynomial_solution and the root finder behind it.

The Bareiss-plus-interpolation characteristic polynomial, the dense
Gauss-Jordan null space, the trial-division rational_roots and the Sturm
bisection rational_roots that polynomial_solution once used are kept here as
test-only references.  The first two read the operator matrix from
full_operator's action on each monomial through test_operators.reference_apply,
the per-term loop, not from the R, F, L formulas the solver uses or DiffOp's
action kernel; the two root finders check the p-adic lifting that replaced them.
The Sturm reference, in turn, is the reference for the solver's block
spectrum, the Gershgorin-bounded lift on polynomial_solution's path; not
rational_roots, which runs the same private finder.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from heunalg import DiffOp, OdeSpec, full_operator, kink_spec, polynomial_solution, polynomials, solvability
from heunalg.operators import GeneralizedSeries
from heunalg.polynomials import (
    _horner,
    _negated_remainder,
    _over_lcm,
    poly,
    poly_eval,
    rational_roots,
)
from heunalg.solvability import (
    PolynomialSolutionResult,
    _band_walk,
    _blocks,
    _characteristic_polynomial,
    _continuant_roots,
    _gershgorin_bound,
    _polynomial_nullspace,
)
from support import poly_mul, reference_interpolate, with_fields
from test_operators import reference_apply


# -- test-only references ---------------------------------------------------------


def reference_rational_roots(p):
    """Rational-root theorem by trial division over the divisors of the
    constant and leading terms; cost grows with their square roots."""
    q = poly(p)
    if not q:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    if len(q) == 1:
        return []
    denom_lcm = 1
    for c in q:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in q]
    roots = set()
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(F(0))
        ints = ints[low:]
    if len(ints) == 1:
        return sorted(roots)
    lead, const = abs(ints[-1]), abs(ints[0])
    for p_div in _divisors(const):
        for q_div in _divisors(lead):
            for cand in (F(p_div, q_div), F(-p_div, q_div)):
                if poly_eval(q, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def reference_sturm_roots(p):
    """Rational roots by Sturm bisection: after clearing denominators and the
    content, p has integer coefficients c_0..c_n, and y = c_n x turns it into
    a monic integer polynomial, whose rational roots are integers; those are
    isolated by sturm_root_candidates and checked by exact evaluation."""
    q = poly(p)
    if not q:
        raise ZeroDivisionError("the zero polynomial vanishes everywhere")
    if len(q) == 1:
        return []
    ints, _ = _over_lcm(q)
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    n, lead = len(ints) - 1, ints[-1]
    # lead^(n-1) p(y / lead) is monic in y with integer coefficients
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    return sorted(F(y, lead) for y in sturm_root_candidates(monic)
                  if not _horner(monic, y, 1))


def sturm_root_candidates(monic):
    """Integers m whose interval (m - 1/2, m + 1/2) holds a real root of the
    monic integer polynomial; every integer root is among them.

    Real roots lie within a Fujiwara bound, rounded up to a power of two.
    Sturm's theorem counts the distinct real roots between two points that
    are not roots, and the intervals are bisected only at half-integers,
    which a monic integer polynomial never vanishes at; signs there are
    evaluated in integers, scaled by a power of two.
    """
    n = len(monic) - 1
    bound_bits = 1 + max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(monic[:-1]))
    derivative = [i * c for i, c in enumerate(monic)][1:]
    sturm = [monic, derivative]
    while len(sturm[-1]) > 1:
        rem = _negated_remainder(sturm[-2], sturm[-1])
        if not rem:
            break
        sturm.append(rem)

    variations_at = {}

    def variations(twice):
        """Sign changes of the Sturm sequence at twice / 2."""
        if twice not in variations_at:
            values = [_horner(s, twice, 2) for s in sturm]
            signs = [v > 0 for v in values if v]
            variations_at[twice] = sum(a != b for a, b in zip(signs, signs[1:]))
        return variations_at[twice]

    # each interval (lo/2, hi/2) has odd lo, hi; the root count is a difference
    edge = (1 << (bound_bits + 1)) + 1
    candidates = []
    stack = [(-edge, edge)]
    while stack:
        lo, hi = stack.pop()
        if variations(lo) == variations(hi):
            continue
        if hi - lo == 2:
            candidates.append((lo + 1) // 2)
            continue
        mid = (lo + hi) // 2
        mid += 1 - mid % 2
        stack += [(lo, mid), (mid, hi)]
    return candidates


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reference_operator_matrix(spec, degree):
    """Matrix of the operator on {x^0..x^degree}, rows x^0..x^(degree+1), built
    by applying full_operator(spec) to each monomial with reference_apply."""
    op = full_operator(spec)
    mat = [[F(0)] * (degree + 1) for _ in range(degree + 2)]
    for c in range(degree + 1):
        for exponent, value in reference_apply(op, GeneralizedSeries.monomial(c)).support().items():
            mat[int(exponent)][c] = value
    return mat


def reference_gauss_nullspace(mat):
    """Null-space basis by dense Gauss-Jordan elimination with exact division."""
    rows = [list(r) for r in mat]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [F(0)] * n_cols
        vec[fc] = F(1)
        for pr, pc in enumerate(pivot_cols):
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


def reference_determinant(mat):
    """Exact determinant by Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return F(1)
    m = [row[:] for row in mat]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return F(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for jcol in range(k + 1, n):
                m[i][jcol] = (m[k][k] * m[i][jcol] - m[i][k] * m[k][jcol]) / prev
            m[i][k] = F(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reference_characteristic_polynomial(spec, degree):
    """det(B + t I) interpolated through Bareiss determinants at t = 0..degree+2."""
    square = reference_operator_matrix(spec, degree)[: degree + 1]
    points = []
    for t in range(degree + 3):
        shifted = [
            [square[i][k] + (F(t) if i == k else F(0)) for k in range(degree + 1)]
            for i in range(degree + 1)
        ]
        points.append((F(t), reference_determinant(shifted)))
    return reference_interpolate(points)


def reference_polynomial_solution(spec, degree, roots=reference_rational_roots):
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = reference_gauss_nullspace(reference_operator_matrix(spec, degree))
    op = full_operator(spec)
    verified = all(
        reference_apply(op, GeneralizedSeries(0, dict(enumerate(vec)))).is_zero() for vec in basis
    )
    spectral = ()
    if not basis:
        char = reference_characteristic_polynomial(spec, degree)
        spectral = tuple(spec.a8 + t for t in roots(char))
    return PolynomialSolutionResult(
        degree=degree,
        basis=tuple(tuple(v) for v in basis),
        spectral_a8=spectral,
        verified=verified,
    )


def ladder_table(spec, degree):
    """The solver's integer table: the rows D (R, F, L)(s) at s = 0..degree."""
    return [spec._ladder_row(s, 1) for s in range(degree + 1)]


def characteristic_polynomial_in_t(spec, degree):
    """det(B + t I) from the solver's integer continuant det(D B + u I), u = D t:
    coefficient c_k of u^k becomes c_k D^(k-n) of t^k, n = degree + 1."""
    table, common = ladder_table(spec, degree), spec._ladder_scale
    char = _characteristic_polynomial(table)
    n = len(char) - 1
    return tuple(F(c, common ** (n - k)) for k, c in enumerate(char))


# -- seeded inputs ------------------------------------------------------------------


def _small(rng, lo=-3, hi=3):
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2)))


SPEC_KINDS = ("generic", "exact", "qes", "qes-terminating", "diagonal", "kink")


def random_spectral_case(rng):
    """(spec, degree) with a3 = 0 and small coefficients, so that the
    trial-division reference stays affordable up to degree 6."""
    kind = rng.choice(SPEC_KINDS)
    degree = rng.randint(0, 6)
    if kind == "kink":
        eps_sq = F(rng.randint(1, 3), rng.choice((1, 2)))
        return kink_spec(eps_sq, F(rng.choice((1, 2, 3)), 2)), min(degree, 4)
    c = {name: _small(rng) for name in ("a1", "a5", "a8")}
    if kind in ("generic", "exact"):
        c.update(a2=_small(rng), a6=_small(rng))
    if kind in ("generic", "qes", "qes-terminating"):
        c.update(a0=_small(rng, -2, 2), a4=_small(rng, -2, 2), a7=_small(rng))
    if kind == "qes-terminating":
        # R(s) = a0 s(s-1) + a4 s + a7 vanishes at s = degree: the ascent stops there
        s = degree
        c["a7"] = -(c["a0"] * s * (s - 1) + c["a4"] * s)
    return OdeSpec(**c), degree


def test_polynomial_solution_matches_reference():
    rng = random.Random(1304)
    seen = {"basis": 0, "spectral": 0, "neither": 0}
    for _ in range(1000):
        spec, degree = random_spectral_case(rng)
        want = reference_polynomial_solution(spec, degree)
        assert polynomial_solution(spec, degree) == want, (spec, degree)
        seen["basis" if want.basis else "spectral" if want.spectral_a8 else "neither"] += 1
    # the seeded mix reaches solutions, spectral reports and empty reports
    assert min(seen.values()) >= 100, seen


def test_continuant_matches_interpolated_determinant():
    rng = random.Random(2225)
    for _ in range(200):
        spec, degree = random_spectral_case(rng)
        assert characteristic_polynomial_in_t(spec, degree) == reference_characteristic_polynomial(
            spec, degree
        )


def test_recurrence_nullspace_matches_dense_elimination():
    rng = random.Random(11)
    for _ in range(300):
        spec, degree = random_spectral_case(rng)
        degree += rng.randint(0, 6)
        want = reference_gauss_nullspace(reference_operator_matrix(spec, degree))
        table = ladder_table(spec, degree)
        assert _polynomial_nullspace(spec, table) == want, (spec, degree)


# One base per branch of the recurrence; the a1, a5, a8 sweep adds zeros of F.
NULLSPACE_BRANCHES = {
    "zero-operator": OdeSpec(),  # every column free; F alone under the sweep
    "lowering-a6": OdeSpec(a6=1),  # L band, or F band once the sweep makes F nonzero
    "lowering-a2": OdeSpec(a2=1),
    "raising-zeros-2-3": OdeSpec(a0=1, a4=-4, a7=6),  # R(s) = (s-2)(s-3)
    "raising-and-lowering-zero-2": OdeSpec(a0=1, a2=1, a4=-4, a6=-1, a7=6),  # L(2) = 0 too
}


@pytest.mark.parametrize("base", NULLSPACE_BRANCHES.values(), ids=NULLSPACE_BRANCHES.keys())
def test_recurrence_nullspace_on_each_branch(base):
    dims = set()
    for a1, a5, a8 in itertools.product(range(-2, 3), repeat=3):
        spec = with_fields(base, a1=F(a1), a5=F(a5), a8=F(a8))
        for degree in range(7):
            want = reference_gauss_nullspace(reference_operator_matrix(spec, degree))
            table = ladder_table(spec, degree)
            assert _polynomial_nullspace(spec, table) == want, (spec, degree)
            dims.add(len(want))
    if base == OdeSpec():
        assert dims == set(range(8))  # the zero operator keeps all 7 monomials at degree 6
    else:
        # a nonzero quadratic pivot band has at most two zeros, so at most two parameters
        assert {0, 1} <= dims <= {0, 1, 2}, dims


def _band_edge_spec(rng, band, degree):
    """A spec whose pivot band is R (0), F (1), L (2) or none (3, the zero
    operator), with the band's zeros planted on integer columns of 0..degree."""
    def small():
        return F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((1, 2)))

    if band == 3:
        return OdeSpec()
    z1, z2 = rng.randint(0, degree), rng.randint(0, degree)
    if band == 2:  # L(s) = a2 s(s-1) + a6 s = a2 s (s - z1), or a6 s
        a2 = small() if rng.random() < 0.7 else F(0)
        return OdeSpec(a2=a2, a6=a2 * (1 - z1) if a2 else small())
    c = {}
    if rng.random() < 0.7:  # L(s) = a2 s(s-1) + a6 s
        c.update(a2=small(), a6=small())
    if band == 1:  # F(s) = a1 s(s-1) + a5 s + a8 = a1 (s - z1)(s - z2)
        a1 = small()
        return OdeSpec(a1=a1, a5=a1 * (1 - z1 - z2), a8=a1 * z1 * z2, **c)
    # with no L and a8 = 0, row 0 of the image vanishes
    c.update(a1=small(), a5=small(), a8=small() if rng.random() < 0.7 else F(0))
    if rng.random() < 0.3:  # R(s) = a4 s + a7 = a4 (s - z1)
        a4 = small()
        return OdeSpec(a4=a4, a7=-a4 * z1, **c)
    a0 = small()  # R(s) = a0 s(s-1) + a4 s + a7 = a0 (s - z1)(s - z2)
    return OdeSpec(a0=a0, a4=a0 * (1 - z1 - z2), a7=a0 * z1 * z2, **c)


def _wide_one_sided_spec(rng, band, zeros, degree, no_f=False):
    """A one-sided spec with 1- to 256-bit coefficients whose pivot band, R
    (0, with L = 0) or F (1, with R = 0), vanishes at the given columns of
    0..degree and nowhere else in it.  Under R, F is 0 with no_f, else wide
    or 0 at s = 0 (a8 = 0, so that row 0 of the image can vanish)."""
    def wide():
        num, den = (rng.randint(1, 2 ** rng.randint(1, 256)) for _ in range(2))
        return F(rng.choice((-1, 1)) * num, den)

    z1, z2 = (*zeros, degree + rng.randint(1, 9), -rng.randint(1, 9))[:2]  # the rest out of range
    lead = wide()
    quadratic = {"a1": lead, "a5": lead * (1 - z1 - z2), "a8": lead * z1 * z2}
    if band == 1:  # F(s) = a1 (s - z1)(s - z2), L wide or 0
        lowering = {"a2": wide(), "a6": wide()} if rng.random() < 0.7 else {}
        return OdeSpec(**quadratic, **lowering)
    raising = dict(zip(("a0", "a4", "a7"), quadratic.values()))  # R(s) = a0 (s - z1)(s - z2)
    diagonal = {} if no_f else {"a1": wide(), "a5": wide(), "a8": rng.choice((0, wide()))}
    return OdeSpec(**raising, **diagonal)


def test_recurrence_nullspace_on_rows_no_free_column_owns(monkeypatch):
    """A free column z owns band row z + 1 under R and z - 1 under L, where its
    own vector's image vanishes.  Row 0 under R, and rows degree and degree+1
    under L, belong to no column: with one free column under R, row 0 is the
    only constraint that can bite.  The fixed case has R(6) = 0, F(0) != 0.

    After the small draws come one-sided specs at degrees 17-48 with 1- to
    256-bit coefficients: under R with L = 0 and 0, 1 or 2 zeros of R in
    range (adjacent ones, and one at column 0), under F with R = 0 and zeros
    of F, and F = 0 under R.  Their two-term rows walk _band_walk's reduced
    pairs, once per free column; two-sided specs, and specs whose pivot band
    is L, never walk it."""
    walks = []
    monkeypatch.setattr(solvability, "_band_walk", lambda *args: walks.append(args) or _band_walk(*args))
    rng = random.Random(1910)
    cases = [(OdeSpec(a0=-1, a1=F(-1, 2), a5=1, a7=30, a8=F(-3, 2)), 6)]
    cases += [(_band_edge_spec(rng, band, degree), degree)
              for band in range(4) for degree in range(17) for _ in range(6)]
    for band, zeros, no_f in ((0, (), False), (0, (7,), False), (0, (11, 12), False),
                              (0, (0, 9), False), (0, (0, 1), False), (1, (5,), False),
                              (1, (3, 16), False), (1, (0, 2), False), (0, (4,), True)):
        for _ in range(2):
            degree = rng.randint(17, 48)
            cases.append((_wide_one_sided_spec(rng, band, zeros, degree, no_f), degree))
    one_free_column_under_r = {True: 0, False: 0}  # keyed by whether row 0 vanished
    wide_bases = 0  # wide draws whose basis has a denominator past the inputs' 256 bits
    for spec, degree in cases:
        want = reference_gauss_nullspace(reference_operator_matrix(spec, degree))
        table = ladder_table(spec, degree)
        walks.clear()
        assert _polynomial_nullspace(spec, table) == want, (spec, degree)
        raising, _, lowering = polys = spec.ladder_polys()
        band = next((k for k, p in enumerate(polys) if p), 0)
        free = sum(1 for row in table if row[band] == 0)
        assert len(walks) == (free if band < 2 and not (raising and lowering) else 0), (spec, degree)
        if degree > 16 and any(x.denominator.bit_length() > 256 for v in want for x in v):
            wide_bases += 1
        assert polynomial_solution(spec, degree).verified, (spec, degree)
        if raising and sum(1 for r, _, _ in table if r == 0) == 1:
            one_free_column_under_r[bool(want)] += 1
    assert min(one_free_column_under_r.values()) >= 5, one_free_column_under_r
    assert wide_bases >= 4, wide_bases


# -- rational_roots -------------------------------------------------------------------


IRRATIONAL_FACTORS = (
    (F(-2), F(0), F(1)),  # x^2 - 2
    (F(1), F(1), F(1)),  # x^2 + x + 1, no real root
    (F(-3), F(0), F(0), F(1)),  # x^3 - 3
    (F(-1), F(-1), F(1)),  # x^2 - x - 1
    (F(5), F(0), F(-7), F(0), F(1)),  # x^4 - 7 x^2 + 5
)


def random_root_case(rng):
    """A polynomial with known rational roots, repeated roots and factors
    without rational roots, scaled by a random rational."""
    p = (F(rng.randint(1, 300), rng.randint(1, 40)) * rng.choice((1, -1)),)
    expected = set()
    for _ in range(rng.randint(0, 5)):
        root = F(rng.randint(-300, 300), rng.randint(1, 40))
        expected.add(root)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            p = poly_mul(p, (-root, F(1)))
    for _ in range(rng.randint(0, 2)):
        p = poly_mul(p, rng.choice(IRRATIONAL_FACTORS))
    if rng.random() < 0.3:
        # a random factor, usually without rational roots
        p = poly_mul(p, tuple(F(rng.randint(-300, 300), rng.randint(1, 40))
                              for _ in range(rng.randint(2, 4))) + (F(1),))
    return p, expected


def test_rational_roots_matches_sympy_ground_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1988)
    for _ in range(1000):
        p, expected = random_root_case(rng)
        found = rational_roots(p)
        oracle = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x, domain="QQ"
        ).ground_roots()
        assert found == sorted(F(int(r.p), int(r.q)) for r in oracle), p
        assert expected <= set(found)


def test_rational_roots_takes_the_square_free_part_only_when_a_root_repeats(monkeypatch):
    """On the sympy cross-check's polynomials, and on each of them times the
    square of a planted nonzero root, rational_roots runs the remainder
    sequence once when a nonzero rational root repeats (it is a repeated
    root modulo every prime) and never when every root is simple.  A
    repeated root 0 is split off first, and a repeated factor with no
    rational root may have no root modulo the first prime tried."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    calls = count_fallbacks(monkeypatch)
    rng = random.Random(1988)
    seen = {False: 0, True: 0}
    for _ in range(1000):
        p, _ = random_root_case(rng)
        root = F(rng.randint(1, 300) * rng.choice((1, -1)), rng.randint(1, 40))
        for q in (p, poly_mul(p, poly_mul((-root, F(1)), (-root, F(1))))):
            oracle = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(q)], x,
                                domain="QQ")
            del calls[:]
            found = rational_roots(q)
            assert found == sorted(F(int(r.p), int(r.q)) for r in oracle.ground_roots()), q
            derivative = [i * c for i, c in enumerate(q)][1:]
            repeated = any(r and poly_eval(derivative, r) == 0 for r in found)
            if repeated or oracle.is_sqf:
                assert len(calls) == repeated, q
                seen[repeated] += 1
    assert min(seen.values()) >= 300, seen


def test_rational_roots_matches_trial_division():
    rng = random.Random(467)
    for _ in range(300):
        p = tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 6)))
        if not poly(p):
            continue
        assert rational_roots(p) == reference_rational_roots(p), p
        assert rational_roots(p) == reference_sturm_roots(p), p


class TestRationalRootsEdges:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rational_roots([F(0), F(0)])

    def test_nonzero_constant_has_no_roots(self):
        assert rational_roots([F(7, 3)]) == []

    @staticmethod
    def repeated_and_irrational():
        """(x - 1/2)^3 (x^2 - 2) (3x + 300) and its rational roots."""
        p = (F(1),)
        for factor in [(F(-1, 2), F(1))] * 3 + [(F(-2), F(0), F(1)), (F(300), F(3))]:
            p = poly_mul(p, factor)
        return p, [F(-100), F(1, 2)]

    @staticmethod
    def large_roots_near_the_bound():
        big = 2 ** 200 + 1
        return poly_mul((F(-big), F(1)), (F(big, 3), F(1))), [F(-big, 3), F(big)]

    def test_root_zero_with_multiplicity(self):
        assert rational_roots([F(0), F(0), F(0), F(5)]) == [F(0)]
        assert rational_roots([F(0), F(0), F(-1), F(1)]) == [F(0), F(1)]
        for p, roots in (self.repeated_and_irrational(), self.large_roots_near_the_bound()):
            for k in range(1, 4):
                assert rational_roots((F(0),) * k + p) == sorted(roots + [F(0)]), k

    def test_repeated_and_irrational(self):
        p, roots = self.repeated_and_irrational()
        assert rational_roots(p) == roots

    def test_large_roots_near_the_bound(self):
        p, roots = self.large_roots_near_the_bound()
        assert rational_roots(p) == roots

    def test_many_planted_wide_roots(self):
        """Twenty 64-bit rational roots, with multiplicities 1 to 3, times
        x^4 - 7x^2 + 5 and x^2: degree 45.  The square-free part divides out
        a gcd of degree 19, and its leading and constant terms of about 1,200
        bits make the lift square its modulus about ten times."""
        rng = random.Random(1983)
        planted = [F(rng.randrange(-2 ** 64, 2 ** 64), rng.randrange(1, 2 ** 64)) for _ in range(20)]
        p = (F(0), F(0)) + IRRATIONAL_FACTORS[-1]
        for k, root in enumerate(planted):
            for _ in range(1 + k % 3):
                p = poly_mul(p, (-root, F(1)))
        assert len(p) - 1 >= 40
        assert rational_roots(p) == sorted(set(planted) | {F(0)})


# -- former hang probes ------------------------------------------------------------------


HANG_PROBES = ((F(1, 3), F(1, 2), 12), (F(11, 13), F(3, 4), 8))


@pytest.mark.parametrize("eps_sq, s, degree", HANG_PROBES)
def test_former_hang_probes_match_reference(eps_sq, s, degree):
    """Trial division does not finish on these; the reference characteristic
    polynomial's rational roots come from sympy instead."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def sympy_roots(p):
        oracle = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x, domain="QQ"
        ).ground_roots()
        return sorted(F(int(r.p), int(r.q)) for r in oracle)

    spec = kink_spec(eps_sq, s)
    start = time.perf_counter()
    got = polynomial_solution(spec, degree)
    assert time.perf_counter() - start < 5.0
    assert got == reference_polynomial_solution(spec, degree, roots=sympy_roots)


def test_degree_40_finishes_in_polynomial_time():
    """The kink equation at degree 40; a spec built to terminate at t = 60,
    R(60) = 0, whose continuant has nearly all of its roots real; and a
    generic spec with 1,024-bit rational coefficients at degree 3.  With
    Sturm bisection for its roots, polynomial_solution took 0.4 s, 19-45 s
    and 47-72 s on them on a 2-vCPU x86-64 host."""
    t = 60
    real_rooted = OdeSpec(a0=1, a1=F(-3, 2), a2=F(1, 2), a4=-2, a5=F(7, 4), a6=F(-1, 3),
                          a7=-(t * (t - 1) - 2 * t))
    rng = random.Random(77)
    generic = OdeSpec(**{f"a{i}": F(rng.randrange(-2 ** 1024, 2 ** 1024), rng.randrange(1, 2 ** 1024))
                         for i in (0, 1, 2, 4, 5, 6, 7, 8)})
    for spec, degree in ((kink_spec(F(1, 3), F(1, 2)), 40), (real_rooted, t), (generic, 3)):
        start = time.perf_counter()
        result = polynomial_solution(spec, degree)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, (degree, elapsed)
        assert result.degree == degree and result.verified
        char = characteristic_polynomial_in_t(spec, degree)
        assert len(char) == degree + 2 and char[-1] == 1
        assert all(poly_eval(char, a8 - spec.a8) == 0 for a8 in result.spectral_a8)


def _wide_rational(rng, den):
    return F(rng.randrange(-2 ** 64, 2 ** 64), den)


def wide_denominator_case(rng):
    """(spec, degree) at degree 0-8 whose R, F and L each carry their own
    denominator of 64 to 256 bits, so that D, their lcm, and u / D are wide.
    generic: all three factors; terminating: L = 0 and R(degree) = 0, so the
    block is triangular and its continuant has the rational roots -F(k);
    exact: R = 0 and F = a1 (s - z1)(s - z2), with free columns at z1, z2."""
    kind = rng.choice(("generic", "terminating", "exact"))
    degree = rng.randint(0, 8)
    r_den, f_den, l_den = (rng.randrange(2 ** 63, 2 ** rng.choice((64, 128, 256))) for _ in range(3))
    c = {name: _wide_rational(rng, f_den) for name in ("a1", "a5", "a8")}
    if kind != "terminating":
        c.update(a2=_wide_rational(rng, l_den), a6=_wide_rational(rng, l_den))
    if kind == "exact":
        z1, z2 = rng.randint(0, degree), rng.randint(0, degree)
        c.update(a5=c["a1"] * (1 - z1 - z2), a8=c["a1"] * z1 * z2)
    else:
        c.update(a0=_wide_rational(rng, r_den), a4=_wide_rational(rng, r_den))
        c["a7"] = (-(c["a0"] * degree * (degree - 1) + c["a4"] * degree) if kind == "terminating"
                   else _wide_rational(rng, r_den))
    return OdeSpec(**c), degree


def test_wide_unrelated_denominators_match_references():
    """The integer table puts R, F and L over one D; with their own wide
    denominators D is their product, and the spectral values a8 + u / D come
    out of roots u of about (degree + 1) times D's bits.  The Sturm reference
    runs on the reference polynomial p(t) made monic and integral as
    K^n p(u / K), n = degree + 1, K the lcm of the reference matrix's
    denominators: on p itself its bisection takes 7-23 s per case at degree 7."""
    rng = random.Random(3307)
    seen = {"basis": 0, "spectral": 0}
    for _ in range(18):
        spec, degree = wide_denominator_case(rng)
        matrix = reference_operator_matrix(spec, degree)
        want_basis = reference_gauss_nullspace(matrix)
        table = ladder_table(spec, degree)
        assert _polynomial_nullspace(spec, table) == want_basis, (spec, degree)
        want_char = reference_characteristic_polynomial(spec, degree)
        assert characteristic_polynomial_in_t(spec, degree) == want_char, (spec, degree)
        got = polynomial_solution(spec, degree)
        assert got.basis == tuple(map(tuple, want_basis)) and got.verified, (spec, degree)
        if not want_basis:
            scale = math.lcm(*(x.denominator for row in matrix for x in row))
            in_u = [c * scale ** (degree + 1 - k) for k, c in enumerate(want_char)]
            want_a8 = tuple(spec.a8 + u / scale for u in reference_sturm_roots(in_u))
            assert got.spectral_a8 == want_a8, (spec, degree)
            seen["spectral"] += bool(want_a8)
        seen["basis"] += bool(want_basis)
    assert min(seen.values()) >= 4, seen


def test_coefficient_growth_stays_in_fraction_arithmetic():
    """Two inputs whose values grow past 100k bits.  A QES spec with 256-bit
    coefficients that terminates at t = 160 (and a8 = 0, so that row 0 of the
    image vanishes): its one basis vector's coefficients reach numerators and
    denominators of about 160k bits.  And a one-term operator applied to 20
    coefficients of 200k bits.  Carrying either as integer numerators over
    one denominator ends in one gcd of two huge coprime integers per
    coefficient, quadratic in their size: 10-12 s for the null space and
    1.2-1.8 s for the action on a 2-vCPU x86-64 host.  The QES spec has no
    lowering part, so its band rows have two terms and its vector comes from
    _band_walk's reduced integer pairs, whose cross-cancelling gcds pair a
    big integer with a row-sized one: 0.12 s for the null space.  The action
    stays in Fraction arithmetic, which reduces by gcds of a small factor
    against a large one: 0.01 s."""
    rng = random.Random(160)

    def wide(bits):
        return F(rng.randrange(-2 ** bits, 2 ** bits), rng.randrange(1, 2 ** bits))

    t = 160
    c = {name: wide(256) for name in ("a0", "a1", "a4", "a5")}
    spec = OdeSpec(a7=-(c["a0"] * t * (t - 1) + c["a4"] * t), **c)
    start = time.perf_counter()
    result = polynomial_solution(spec, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    assert len(result.basis) == 1 and result.verified
    assert max(x.denominator.bit_length() for x in result.basis[0]) > 100_000

    op = DiffOp([(wide(64), 1, 1)])
    # a power of a 2,000-bit value: 200k bits without a 200k-bit gcd to build it
    series = GeneralizedSeries(F(1, 3), {m: wide(2_000) ** 100 for m in range(20)})
    start = time.perf_counter()
    got = op.apply(series)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed
    want = reference_apply(op, series)
    assert got.base == want.base and list(got.items()) == list(want.items())


def test_image_support_stays_fast_on_the_growth_inputs():
    """The certificate's integer zero test on the two inputs of the test
    above, drawn the same way: the t = 160 basis vector, whose image rows
    each add three contributions over denominators of about 160k bits, and
    the one-term operator on 20 coefficients of 200k bits.  image_support
    adds over the lcm of two denominators and never reduces: 0.15 s and
    0.002 s on a 2-vCPU x86-64 host.  Over the product of the denominators
    the vector took 0.98 s, and a reduced pair per output exponent costs one
    gcd of two huge integers each."""
    rng = random.Random(160)

    def wide(bits):
        return F(rng.randrange(-2 ** bits, 2 ** bits), rng.randrange(1, 2 ** bits))

    t = 160
    c = {name: wide(256) for name in ("a0", "a1", "a4", "a5")}
    spec = OdeSpec(a7=-(c["a0"] * t * (t - 1) + c["a4"] * t), **c)
    (vec,) = polynomial_solution(spec, t).basis
    solution = GeneralizedSeries(0, dict(enumerate(vec)))
    start = time.perf_counter()
    support = full_operator(spec).image_support(solution)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, elapsed
    assert support == ()

    op = DiffOp([(wide(64), 1, 1)])
    series = GeneralizedSeries(F(1, 3), {m: wide(2_000) ** 100 for m in range(20)})
    start = time.perf_counter()
    support = op.image_support(series)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed
    assert support == op.apply(series).shifts() == tuple(range(20))


def test_a_perturbed_basis_vector_is_not_verified(monkeypatch):
    """verified is the residual's zero test, not a constant: with the null
    space made to return perturbed vectors, it is False exactly when one of
    their images, built by the test-only per-term loop, is nonzero."""
    rng = random.Random(2326)
    nullspace = _polynomial_nullspace

    def perturbed(spec, table):
        basis = nullspace(spec, table)
        for vec in basis:
            vec[rng.randrange(len(vec))] += F(rng.randint(1, 5), rng.randint(1, 3))
        return basis

    monkeypatch.setattr("heunalg.solvability._polynomial_nullspace", perturbed)
    assert polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1).verified is False
    refused = 0
    for _ in range(600):
        spec, degree = random_spectral_case(rng)
        result = polynomial_solution(spec, degree)
        op = full_operator(spec)
        want = all(reference_apply(op, GeneralizedSeries(0, dict(enumerate(v)))).is_zero()
                   for v in result.basis)
        assert result.verified is want, (spec, degree)
        refused += not want
    assert refused >= 50, refused


# -- the block spectrum: Gershgorin bound and modular lift ------------------------------


def count_fallbacks(monkeypatch):
    """A list that grows by one polynomial each time the root finder takes a
    square-free part, which it does only when no prime up to its cap has
    every root simple."""
    calls = []
    square_free = polynomials._square_free

    def counted(f):
        calls.append(f)
        return square_free(f)

    monkeypatch.setattr(polynomials, "_square_free", counted)
    return calls


def random_block_table(rng):
    """An integer table D (R, F, L)(s) of 1 to 12 rows in runs: a random run
    has entries in -4..4 and so often a zero coupling, which makes the table
    reducible; a planted run is two rows with F = d +- e and R L = -e^2, whose
    continuant (u + d)^2 has a double root.  Consecutive runs share no
    coupling, so a planted run is a block of its own."""
    table = []
    while len(table) < rng.randint(1, 12):
        if rng.random() < 0.2:
            d, e = rng.randint(-9, 9), rng.randint(1, 4)
            sign = rng.choice((1, -1))
            run = [(sign * e, d + e, rng.randint(-4, 4)), (rng.randint(-4, 4), d - e, -sign * e)]
        else:
            run = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        if table:
            run[0] = run[0][:2] + (0,)
        table += run
    return table


def block_spectrum(table):
    return sorted({u for block in _blocks(table) for u in _continuant_roots(block)})


def test_block_spectrum_matches_sturm_roots_of_the_continuant(monkeypatch):
    """The union of the blocks' lifted roots equals the Sturm reference's
    roots of the whole table's continuant, on random reducible tables with
    planted double roots and on the tables of random specs (coefficients p/q,
    |p| <= 6, q in {1, 2, 3}, degrees 0-8); the blocks with a repeated
    nonzero root reach the fallback, which must run.  A 1-row block's root
    -F lies on its Gershgorin boundary, 2 |u| = 2G, the bound the lift is
    asked to pass; at F = 8 the lift modulo 2 reaches M = 16 = 2G, where the
    residue 8 still reads as +8, so it must go on to M > 2G."""
    for f in (8, -8, 7, -3, 0):
        block = [(5, f, -2)]
        assert _gershgorin_bound(block) == abs(f)
        assert _continuant_roots(block) == [-f]
    fallbacks = count_fallbacks(monkeypatch)
    rng = random.Random(3131)
    repeated = reducible = 0
    for _ in range(1500):
        table = random_block_table(rng)
        reducible += len(_blocks(table)) > 1
        char = _characteristic_polynomial(table)
        want = reference_sturm_roots(char)
        assert all(u.denominator == 1 for u in want)
        assert block_spectrum(table) == [u.numerator for u in want], table
        derivative = [F(i * c) for i, c in enumerate(char)][1:]
        repeated += any(poly_eval(derivative, u) == 0 for u in want)
    assert min(repeated, reducible) >= 100, (repeated, reducible)
    for _ in range(1500):
        spec = OdeSpec(**{f"a{i}": F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                          for i in (0, 1, 2, 4, 5, 6, 7, 8)})
        degree = rng.randint(0, 8)
        result = polynomial_solution(spec, degree)
        if not result.basis:
            char = _characteristic_polynomial(ladder_table(spec, degree))
            want = tuple(spec.a8 + u / spec._ladder_scale for u in reference_sturm_roots(char))
            assert result.spectral_a8 == want, (spec, degree)
    assert fallbacks


BASELINE_SPECS = (
    {"a0": 1, "a1": F(1, 3), "a2": 2, "a4": F(1, 2), "a5": -1, "a6": F(1, 5)},
    {"a0": 1, "a1": F(-3, 2), "a2": F(1, 2), "a4": -2, "a5": F(7, 4), "a6": F(-1, 3)},
)


@pytest.mark.parametrize("t, limit", ((160, 0.5), (320, 2.0)))
def test_terminating_baseline_specs_finish_without_the_remainder_sequence(monkeypatch, t, limit):
    """The two specs of the ROADMAP baseline, built to terminate at t
    (a7 = -(a0 t (t-1) + a4 t), so R(t) = 0): their continuants have 3,000 to
    6,000-bit coefficients, on which the square-free remainder sequence took
    4.7-8.2 s already at t = 80.  The lift past the Gershgorin bound finds a
    prime at which every root is simple, so no block falls back; it took
    0.02-0.06 s at t = 160 and 0.08-0.2 s at t = 320 on a 2-vCPU x86-64
    host."""
    fallbacks = count_fallbacks(monkeypatch)
    for c in BASELINE_SPECS:
        spec = OdeSpec(a7=-(c["a0"] * t * (t - 1) + c["a4"] * t), **c)
        start = time.perf_counter()
        result = polynomial_solution(spec, t)
        elapsed = time.perf_counter() - start
        assert elapsed < limit, (t, elapsed)
        assert result.degree == t and result.basis == () and result.verified
    assert fallbacks == []
