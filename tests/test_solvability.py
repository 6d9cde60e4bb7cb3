"""Indicial roots, solvability gates, series and polynomial solutions."""

import random
import time
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from heunalg import (
    DegenerateDiagonalError,
    GeneralizedSeries,
    HeunalgError,
    NoIndicialRootError,
    NotCastableError,
    OdeSpec,
    ResonantExponentError,
    build_generators,
    check_solvability,
    full_operator,
    hypergeometric_oracle,
    indicial_roots,
    jacobi_spec,
    kink_spec,
    polynomial_solution,
    series_solution_with_report,
    termination_condition,
)
from heunalg.operators import as_fraction
from heunalg.polynomials import rational_roots
from heunalg.solvability import DEFAULT_HORIZON, SeriesReport, _band_walk
from support import exact_branch_spec


class TestIndicialRoots:
    def test_zero_one(self):
        r = indicial_roots(OdeSpec(a1=1, a2=1))
        assert {r.lambda_plus, r.lambda_minus} == {F(0), F(1)}
        assert not r.degenerate and not r.irrational

    def test_linear_case_single_root(self):
        r = indicial_roots(OdeSpec(a2=1, a5=2, a8=-3))
        assert r.lambda_plus == F(3, 2)
        assert r.lambda_minus is None

    def test_no_root(self):
        with pytest.raises(NoIndicialRootError):
            indicial_roots(OdeSpec(a2=1, a8=5))

    def test_degenerate_diagonal(self):
        with pytest.raises(DegenerateDiagonalError):
            indicial_roots(OdeSpec(a2=1))

    def test_irrational_marker(self):
        r = indicial_roots(OdeSpec(a1=1, a2=1, a8=-1))  # L^2 - L - 1
        assert r.irrational
        assert r.lambda_plus is None and r.lambda_minus is None
        assert r.discriminant == 5
        assert r.rational_part == F(1, 2)

    def test_double_root(self):
        r = indicial_roots(OdeSpec(a1=1, a5=2, a8=F(1, 4), a2=1))
        # L^2 + L + 1/4 = (L + 1/2)^2
        assert r.degenerate
        assert r.lambda_plus == r.lambda_minus == F(-1, 2)

    def test_returned_roots_annihilated_by_diagonal(self):
        rng = random.Random(21)
        checked = 0
        while checked < 10:
            lam1 = F(rng.randint(-6, 6), rng.randint(1, 3))
            lam2 = F(rng.randint(-6, 6), rng.randint(1, 3))
            spec = exact_branch_spec(lam1, lam2)
            r = indicial_roots(spec)
            for lam in (r.lambda_plus, r.lambda_minus):
                if lam is None:
                    continue
                diag = OdeSpec(a1=spec.a1, a5=spec.a5, a8=spec.a8)
                assert full_operator(diag).apply_to_monomial(lam).is_zero()
                checked += 1


INDICIAL_KINDS = ("zero", "constant", "linear", "rational", "double", "irrational")


def random_indicial_spec(rng, kind):
    """A spec whose F(L) = a1 L^2 + (a5 - a1) L + a8 has the given shape; the
    coefficients that F does not read are random too."""
    other = {f"a{i}": _small(rng) for i in (0, 2, 3, 4, 6, 7)}
    other["j"] = _small(rng)
    a1, a5, a8 = F(0), F(0), F(0)
    if kind == "constant":
        a8 = _small(rng, nonzero=True)
    elif kind == "linear":
        a5, a8 = _small(rng, nonzero=True), _small(rng)
    elif kind in ("rational", "double"):
        lam1 = _small(rng)
        lam2 = lam1 if kind == "double" else _small(rng)
        a1 = _small(rng, nonzero=True)
        a5, a8 = a1 * (1 - lam1 - lam2), a1 * lam1 * lam2
    elif kind == "irrational":
        while a1 == 0 or rational_roots((a8, a5 - a1, a1)):
            a1, a5, a8 = _small(rng, nonzero=True), _small(rng), _small(rng)
    return OdeSpec(a1=a1, a5=a5, a8=a8, **other)


def test_indicial_roots_match_roots_of_f():
    """indicial_roots against the rational roots and discriminant of F itself,
    on 500 seeded specs of every shape F can take."""
    rng = random.Random(909)
    seen = Counter()
    for _ in range(500):
        kind = rng.choice(INDICIAL_KINDS)
        spec = random_indicial_spec(rng, kind)
        f_poly = spec.ladder_polys()[1]
        f0, f1, f2 = (list(f_poly) + [F(0)] * 3)[:3]
        if kind == "zero":
            assert f_poly == ()
            with pytest.raises(DegenerateDiagonalError):
                indicial_roots(spec)
            seen[kind] += 1
            continue
        if kind == "constant":
            assert len(f_poly) == 1
            with pytest.raises(NoIndicialRootError):
                indicial_roots(spec)
            seen[kind] += 1
            continue
        r = indicial_roots(spec)
        roots = rational_roots(f_poly)
        assert r.discriminant == f1 * f1 - 4 * f2 * f0
        if f2 == 0:
            assert (r.lambda_plus, r.lambda_minus, r.rational_part) == (roots[0], None, None)
            assert not r.irrational and not r.degenerate
            seen["linear"] += 1
        elif not roots:
            assert (r.lambda_plus, r.lambda_minus) == (None, None)
            assert r.irrational and not r.degenerate
            assert r.rational_part == -f1 / (2 * f2)
            seen["irrational"] += 1
        else:
            assert {r.lambda_plus, r.lambda_minus} == set(roots)
            assert r.rational_part == (r.lambda_plus + r.lambda_minus) / 2 == -f1 / (2 * f2)
            assert r.degenerate == (len(roots) == 1) == (r.discriminant == 0)
            assert not r.irrational
            seen["double" if r.degenerate else "rational"] += 1
    assert set(seen) == set(INDICIAL_KINDS)


class TestSolvabilityVerdict:
    def test_exact_branch(self):
        v = check_solvability(OdeSpec(a1=1, a2=-1, a5=3, a6=1, a8=-2))
        assert v.exactly_solvable and not v.quasi_exactly_solvable
        assert dict(v.reduced_form)["a2/a1"] == -1

    def test_qes_branch(self):
        v = check_solvability(OdeSpec(a0=1, a1=2, a4=1, a5=1, a7=-2, a8=1))
        assert v.quasi_exactly_solvable and not v.exactly_solvable
        assert dict(v.reduced_form)["a8/a7"] == F(-1, 2)

    def test_kink_outside_sl2_conditions(self):
        v = check_solvability(kink_spec(F(1), F(1, 2)))
        assert not v.exactly_solvable and not v.quasi_exactly_solvable
        assert v.note is not None and "outside" in v.note

    def test_trivial_diagonal(self):
        v = check_solvability(OdeSpec(a1=1, a5=1, a8=-1))
        assert v.exactly_solvable and v.quasi_exactly_solvable
        assert v.trivial_diagonal

    def test_verdicts_hash(self):
        """reduced_form is a tuple of (name, value) pairs, so every verdict is
        hashable and equal verdicts hash alike."""
        specs = (OdeSpec(a1=1, a2=1, a5=-2, a6=3), OdeSpec(a0=1, a1=2, a4=1, a5=1, a7=-2, a8=1),
                 OdeSpec(a1=1, a5=1, a8=-1), kink_spec(F(1), F(1, 2)))
        verdicts = [check_solvability(spec) for spec in specs]
        assert [len(v.reduced_form) for v in verdicts] == [4, 5, 4, 0]
        assert [hash(v) for v in verdicts] == [hash(check_solvability(spec)) for spec in specs]
        assert len(set(verdicts)) == 4

    def test_uncastable_rejected(self):
        """a3 D^2 lowers every monomial by two, outside both gates: the verdict
        would read 'no raising or lowering part at all'."""
        with pytest.raises(NotCastableError):
            check_solvability(jacobi_spec(2, 0, 0))

class TestSeriesSolution:
    def test_zero_iterations_is_seed(self):
        spec = exact_branch_spec(F(1, 2), F(-1, 3))
        series, _ = series_solution_with_report(spec, F(1, 2), 0)
        assert series == GeneralizedSeries.monomial(F(1, 2))

    def test_non_root_rejected(self):
        spec = exact_branch_spec(F(1, 2), F(-1, 3))
        with pytest.raises(ValueError):
            series_solution_with_report(spec, F(1, 4), 3)

    def test_descending_resonance(self):
        # roots 2 and 0; the descent from 2 reaches the other root
        spec = OdeSpec(a1=1, a2=1, a5=-1, a6=3)
        with pytest.raises(ResonantExponentError):
            series_solution_with_report(spec, 2, 10)

    def test_two_sided_resonance(self):
        # both ladder parts present: a generated term returns to the seed
        spec = kink_spec(F(1), F(1, 2))
        with pytest.raises(ResonantExponentError):
            series_solution_with_report(spec, 1, 5)

    def test_qes_truncation_to_polynomial(self):
        # ascending branch terminates where the raising factor vanishes
        spec = OdeSpec(a4=1, a7=-3, a1=0, a5=1, a8=0)
        assert termination_condition(spec).values == (F(4),)
        series, report = series_solution_with_report(spec, 0, 12)
        assert report.stationary_at is not None
        assert series.shifts() == (0, 1, 2, 3)  # degree n-1 = 3
        assert full_operator(spec).apply(series).is_zero()

    def test_residual_order_property(self):
        rng = random.Random(22)
        produced = 0
        while produced < 8:
            lam1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            lam2 = lam1 + F(2 * rng.randint(1, 5), 2 * rng.randint(1, 3) + 1)
            if (lam1 - lam2).denominator == 1:
                continue
            spec = exact_branch_spec(
                lam1, lam2,
                a2=F(rng.randint(1, 5)), a6=F(rng.randint(-4, 4)),
            )
            k = rng.randint(2, 8)
            series, _ = series_solution_with_report(spec, lam1, k)
            residual = full_operator(spec).apply(series)
            assert all(abs(m) > k - 1 for m in residual.shifts())
            produced += 1


def reference_series_with_report(spec, lam, iterations, horizon=None):
    """The DiffOp fixed-point loop series_solution_with_report once ran,
    kept as a test-only reference: it re-applies P+ + P- to the whole series
    on every iteration."""
    lam = as_fraction(lam)

    def diagonal(t):
        """F(t), written out from a0..a8."""
        return spec.a1 * t * (t - 1) + spec.a5 * t + spec.a8

    if diagonal(lam) != 0:
        raise ValueError(f"lambda = {lam} is not an indicial root: F({lam}) = {diagonal(lam)}")
    window = DEFAULT_HORIZON if horizon is None else horizon
    gens = build_generators(spec)
    ladder = gens.p_plus + gens.p_minus
    seed = GeneralizedSeries.monomial(lam)
    psi = seed
    dropped = 0
    stationary_at = None
    for k in range(iterations):
        pushed = ladder.apply(psi)
        inverted = {}
        for m, c in pushed.items():
            f_val = diagonal(lam + m)
            if f_val == 0:
                raise ResonantExponentError(
                    f"F vanishes at generated exponent {lam + m} (shift {m})"
                )
            inverted[m] = c / f_val
        nxt = seed + GeneralizedSeries(lam, {m: -c for m, c in inverted.items()})
        kept = {m: c for m, c in nxt.items() if abs(m) <= window}
        dropped += len(nxt.shifts()) - len(kept)
        nxt = GeneralizedSeries(lam, kept)
        if nxt == psi:
            stationary_at = k
            break
        psi = nxt
    return psi, SeriesReport(dropped=dropped, stationary_at=stationary_at)


CASE_KINDS = (
    "exact", "exact-terminating", "qes", "qes-terminating",
    "mixed", "mixed-descending", "mixed-ascending",
)


def _small(rng, nonzero=False):
    while True:
        q = F(rng.randint(-6, 6), rng.randint(1, 3))
        if q != 0 or not nonzero:
            return q


def random_series_case(rng):
    """(spec, lam, iterations, horizon) covering every branch of the iteration:
    one-sided and mixed ladders, terminating and resonant ones, a3 != 0 and
    exponents that are not indicial roots."""
    kind = rng.choice(CASE_KINDS)
    if kind == "mixed-ascending":
        # L vanishes at lam and lam + 1 only when lam is 0 or -1
        lam1 = F(rng.choice((0, -1)))
    else:
        lam1 = _small(rng)
    if rng.random() < 0.4:
        lam2 = lam1 + rng.choice((-1, 1)) * rng.randint(1, 6)  # a resonance ahead
    else:
        lam2 = _small(rng)
    c = {}
    if rng.random() < 0.85:
        a1 = _small(rng, nonzero=True)
        c.update(a1=a1, a5=a1 * (1 - lam1 - lam2), a8=a1 * lam1 * lam2)
    else:
        a5 = _small(rng, nonzero=True)
        c.update(a5=a5, a8=-a5 * lam1)
    lam = lam1 if "a1" not in c or rng.random() < 0.5 else lam2
    if kind in ("exact", "mixed", "mixed-descending"):
        c.update(a2=_small(rng), a6=_small(rng))
    if kind in ("qes", "mixed", "mixed-ascending"):
        c.update(a0=_small(rng), a4=_small(rng), a7=_small(rng))
    if kind == "exact-terminating":
        s = lam - rng.randint(1, 8)  # L(s) = 0 stops the descent at s
        a2 = _small(rng, nonzero=True)
        c.update(a2=a2, a6=a2 * (1 - s))
    elif kind == "qes-terminating":
        s = lam + rng.randint(0, 8)  # R(s) = 0 stops the ascent at s
        a0, a4 = _small(rng), _small(rng)
        c.update(a0=a0, a4=a4, a7=-(a0 * s * (s - 1) + a4 * s))
    elif kind == "mixed-descending":
        # R(lam) = R(lam - 1) = 0: the series lives below the seed, where
        # both ladder parts act, without returning to it
        a0 = _small(rng, nonzero=True)
        c.update(a0=a0, a4=a0 * (2 - 2 * lam), a7=a0 * lam * (lam - 1))
    elif kind == "mixed-ascending":
        a2 = _small(rng, nonzero=True)
        c.update(a2=a2, a6=F(0) if lam1 == 0 else 2 * a2)
        lam = lam1
    if rng.random() < 0.05:
        c["a3"] = _small(rng, nonzero=True)
    if rng.random() < 0.05:
        lam += F(1, 7)
    horizon = rng.choice((None, 0, 1, 3, 10, 40))
    return OdeSpec(**c), lam, rng.randint(0, 40), horizon


def _outcome(fn, *args):
    try:
        series, report = fn(*args)
    except (ValueError, HeunalgError) as exc:
        return type(exc), str(exc)
    return series.support(), report


def test_sweep_matches_reference_loop():
    rng = random.Random(2225)
    kinds = {"ok": 0, "resonant": 0, "stationary": 0, "dropped": 0, "error": 0}
    for _ in range(1000):
        case = random_series_case(rng)
        got = _outcome(series_solution_with_report, *case)
        want = _outcome(reference_series_with_report, *case)
        assert got == want, case
        if isinstance(want[1], SeriesReport):
            kinds["ok"] += 1
            kinds["stationary"] += want[1].stationary_at is not None
            kinds["dropped"] += want[1].dropped > 0
        elif want[0] is ResonantExponentError:
            kinds["resonant"] += 1
        else:
            kinds["error"] += 1
    # the seeded mix reaches every branch of the iteration
    assert min(kinds.values()) >= 50, kinds


def wide_denominator_series_case(rng, kind):
    """(spec, lam, iterations, horizon) of one of CASE_KINDS with R, F and L
    each over its own 64- to 128-bit denominator and lam over 1 to 7, so the
    rows' common scale D q^2 spans three unrelated denominators.  The mixed
    kinds that do not resonate at the seed are the ones the sweep walks far."""
    dens = [rng.getrandbits(rng.randint(64, 128)) | 1 for _ in range(3)]  # R, F, L

    def wide(factor):
        return F(rng.randint(-2**64, 2**64) or 1, dens[factor])

    def small():
        return F(rng.randint(-6, 6), rng.randint(1, 7))

    lam1 = F(rng.choice((0, -1))) if kind == "mixed-ascending" else small()
    lam2 = lam1 + rng.choice((-1, 1)) * rng.randint(1, 6) if rng.random() < 0.4 else small()
    a1 = wide(1)
    c = dict(a1=a1, a5=a1 * (1 - lam1 - lam2), a8=a1 * lam1 * lam2)
    lam = lam1 if kind == "mixed-ascending" or rng.random() < 0.5 else lam2
    if kind in ("exact", "mixed", "mixed-descending"):
        c.update(a2=wide(2), a6=wide(2))
    if kind in ("qes", "mixed", "mixed-ascending"):
        c.update(a0=wide(0), a4=wide(0), a7=wide(0))
    if kind == "exact-terminating":
        a2 = wide(2)
        c.update(a2=a2, a6=a2 * (1 - (lam - rng.randint(1, 8))))
    elif kind == "qes-terminating":
        s, a0, a4 = lam + rng.randint(0, 8), wide(0), wide(0)
        c.update(a0=a0, a4=a4, a7=-(a0 * s * (s - 1) + a4 * s))
    elif kind == "mixed-descending":
        a0 = wide(0)
        c.update(a0=a0, a4=a0 * (2 - 2 * lam), a7=a0 * lam * (lam - 1))
    elif kind == "mixed-ascending":
        a2 = wide(2)
        c.update(a2=a2, a6=F(0) if lam1 == 0 else 2 * a2)
    return OdeSpec(**c), lam, rng.randint(2, 16), rng.choice((None, 3, 10))


def test_sweep_matches_reference_loop_with_unrelated_wide_denominators():
    rng = random.Random(2241)
    long_series, resonant = Counter(), Counter()
    for kind in CASE_KINDS:
        for _ in range(12):
            case = wide_denominator_series_case(rng, kind)
            got = _outcome(series_solution_with_report, *case)
            assert got == _outcome(reference_series_with_report, *case), (kind, case)
            if isinstance(got[1], SeriesReport):
                long_series[kind] += len(got[0]) >= 4
            else:
                resonant[kind] += got[0] is ResonantExponentError
    # a generic two-sided spec returns to its seed; the other two mixed
    # constructions carry the sweep through several terms
    assert resonant["mixed"] == 12, resonant
    assert min(long_series[k] for k in ("mixed-descending", "mixed-ascending")) >= 4, long_series


def test_exactly_solvable_series_matches_oracle_at_512_terms():
    lam1, lam2 = F(1, 3), F(-3, 2)
    spec = OdeSpec(a1=6, a2=2, a5=6 * (1 - lam1 - lam2), a6=1, a8=6 * lam1 * lam2)
    series, report = series_solution_with_report(spec, lam1, 512, 512)
    assert series == hypergeometric_oracle(spec, lam1, 513)
    assert report == SeriesReport(dropped=0, stationary_at=None)


def _bits128(rng, integer=False):
    """A nonzero rational whose numerator (and denominator, unless integer) has 128 bits."""
    while True:
        num = rng.getrandbits(128) - 2**127
        if num:
            return F(num) if integer else F(num, rng.getrandbits(128) | 2**127)


class TestLongBandWalk:
    """400-step walks with 128-bit coefficients and lam of denominator 3."""

    def test_descending_exact_branch_matches_oracle(self):
        rng = random.Random(4001)
        lam, lam2 = F(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), 3), _bits128(rng)
        a1 = _bits128(rng)
        spec = OdeSpec(a1=a1, a2=_bits128(rng), a5=a1 * (1 - lam - lam2), a6=_bits128(rng),
                       a8=a1 * lam * lam2)
        series, report = series_solution_with_report(spec, lam, 400, 400)
        assert series.shifts() == tuple(range(-400, 1))
        assert series == hypergeometric_oracle(spec, lam, 401)
        assert report == SeriesReport(dropped=0, stationary_at=None)

    def test_ascending_qes_branch_residual_at_truncation_edge_only(self):
        # integer coefficients; the rational case is the test below
        rng = random.Random(4002)
        lam = F(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), 3)
        a0, a1, a4, a5, a7 = (_bits128(rng, integer=True) for _ in range(5))
        spec = OdeSpec(a0=a0, a1=a1, a4=a4, a5=a5, a7=a7, a8=-(a1 * lam * (lam - 1) + a5 * lam))
        series, report = series_solution_with_report(spec, lam, 400, 400)
        assert series.shifts() == tuple(range(0, 401))
        assert report == SeriesReport(dropped=0, stationary_at=None)
        residual = full_operator(spec).apply(series)
        assert residual.shifts() == (401,)
        raising = spec.ladder_at(lam + 400)[0]
        assert residual.support().get(lam + 401, 0) == raising * series.support().get(lam + 400, 0)

    def test_ascending_qes_branch_with_rational_coefficients_certifies(self):
        # the walk alone took 0.2-0.3 s on a 2-vCPU x86-64 host; one that
        # built each coefficient with Fraction's constructor, one gcd of its
        # huge coprime numerator and denominator per step, took 11.9 s
        rng = random.Random(4003)
        lam = F(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), 3)
        a0, a1, a4, a5, a7 = (_bits128(rng) for _ in range(5))
        spec = OdeSpec(a0=a0, a1=a1, a4=a4, a5=a5, a7=a7, a8=-(a1 * lam * (lam - 1) + a5 * lam))
        start = time.perf_counter()
        series, report = series_solution_with_report(spec, lam, 400, 400)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, elapsed
        assert series.shifts() == tuple(range(0, 401))
        assert report == SeriesReport(dropped=0, stationary_at=None)
        residual = full_operator(spec).apply(series)
        assert residual.shifts() == (401,)
        raising = spec.ladder_at(lam + 400)[0]
        assert residual.support().get(lam + 401, 0) == raising * series.support().get(lam + 400, 0)


def reference_band_walk(spec, lam, band, iterations, window):
    """_band_walk as it ran with one normalised Fraction ratio and one
    Fraction multiply per step, kept as a test-only reference."""
    step = 1 if band == 0 else -1
    p, q = lam.numerator, lam.denominator
    psi = {0: F(1)}
    c, m = psi[0], 0
    row = spec._ladder_row(p, q)  # at shift m
    for k in range(iterations):
        x = row[band]
        if not x:
            return psi, SeriesReport(dropped=0, stationary_at=k)
        row = spec._ladder_row(p + (m + step) * q, q)
        if not row[1]:
            raise ResonantExponentError(
                f"F vanishes at generated exponent {lam + m + step} (shift {m + step})"
            )
        if abs(m + step) > window:
            return psi, SeriesReport(dropped=1, stationary_at=k)
        m += step
        c *= F(-x, row[1])
        psi[m] = c
    return psi, SeriesReport(dropped=0, stationary_at=None)


def _bits(rng, bits, integer):
    """A nonzero rational with a numerator, and unless integer a denominator,
    of at most the given bits."""
    num = (rng.getrandbits(bits) or 1) * rng.choice((1, -1))
    return F(num) if integer else F(num, rng.getrandbits(bits) or 1)


def random_band_walk_case(rng):
    """(spec, lam, band, iterations, window) of a one-sided spec, descending
    (band 2, L only) or ascending (band 0, R only), with 1- to 256-bit
    coefficients, lam an integer or p/q, F's second root at times an integer
    step ahead (a resonance) and the ladder factor at times zero at a shift
    ahead (a stationary walk)."""
    band = rng.choice((0, 2))
    step = 1 if band == 0 else -1
    bits = rng.randint(1, 256)
    integer = rng.random() < 0.3
    iterations, window = rng.randint(0, 40), rng.randint(0, 40)
    if rng.random() < 0.3:
        lam = F(rng.randint(-6, 6))
    else:
        lam = F(rng.randint(-40, 40), rng.randint(2, 9))
    if rng.random() < 0.3:
        lam2 = lam + step * rng.randint(1, 20)
    else:
        lam2 = _bits(rng, bits, integer)
    a1 = _bits(rng, bits, integer) if rng.random() < 0.9 else F(0)
    if a1:
        c = dict(a1=a1, a5=a1 * (1 - lam - lam2), a8=a1 * lam * lam2)
    else:
        a5 = _bits(rng, bits, integer)
        c = dict(a5=a5, a8=-a5 * lam)
    stop = lam + step * rng.randint(0, 20) if rng.random() < 0.3 else None
    if band == 0:  # R(s) = a0 s(s-1) + a4 s + a7, zero at stop
        a0, a4 = _bits(rng, bits, integer), _bits(rng, bits, integer)
        a7 = _bits(rng, bits, integer) if stop is None else -(a0 * stop * (stop - 1) + a4 * stop)
        c.update(a0=a0, a4=a4, a7=a7)
    else:  # L(s) = a2 s(s-1) + a6 s, zero at 0 and at stop
        a2 = _bits(rng, bits, integer)
        a6 = _bits(rng, bits, integer) if stop is None else a2 * (1 - stop)
        c.update(a2=a2, a6=a6)
    return OdeSpec(**c), lam, band, iterations, window


def test_pair_walk_matches_the_fraction_walk():
    """The walk's reduced integer pairs give the series and report of one
    Fraction multiply per step, and every coefficient is a Fraction that
    equals and hashes like the one the constructor builds."""
    assert F.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(3607)
    kinds = Counter()
    for _ in range(400):
        case = random_band_walk_case(rng)
        spec, lam, band, _, _ = case
        try:
            want = reference_band_walk(*case)
        except ResonantExponentError as exc:
            with pytest.raises(ResonantExponentError) as got:
                _band_walk(*case)
            assert str(got.value) == str(exc), case
            kinds["resonant"] += 1
            continue
        psi, report = _band_walk(*case)
        assert (psi, report) == want, case
        for c in psi.values():
            n, d = c.numerator, c.denominator
            assert type(c) is F and d > 0 and gcd(n, d) == 1, (case, c)
            assert c == F(n, d) and hash(c) == hash(F(n, d)), (case, c)
        kinds["stationary" if report.stationary_at is not None and not report.dropped
              else "dropped" if report.dropped else "ran out"] += 1
        kinds["down" if band else "up"] += len(psi) > 1
        kinds["integer lam"] += lam.denominator == 1 and len(psi) > 1
        kinds["F < 0"] += any(spec.ladder_at(lam + m)[1] < 0 for m in psi if m)
        kinds["wide"] += max(abs(c.numerator).bit_length() for c in psi.values()) > 1000
    # the seeded mix reaches every end of the walk, both directions, integer
    # seeds, negative F and coefficients of thousands of bits
    assert min(kinds.values()) >= 40, kinds


def one_sided_spec(rng, lam, band, bits, integer, lam2=None, stop=None, scale=F(1)):
    """scale times a spec with F(s) = a1 (s - lam)(s - lam2) and one ladder
    factor, R (band 0) or L (band 2), of coefficients drawn with _bits; R is
    a0 (s - stop)(s - other) and L is a2 s (s - stop) when stop is given.
    A common scale leaves every ratio -X/F of the walk alone, so the rows are
    as wide as the scale while the coefficients grow with the narrow part."""
    a1 = _bits(rng, bits, integer)
    lam2 = _bits(rng, bits, integer) if lam2 is None else lam2
    c = dict(a1=a1, a5=a1 * (1 - lam - lam2), a8=a1 * lam * lam2)
    if band == 0:  # R(s) = a0 s(s-1) + a4 s + a7
        a0, a4 = _bits(rng, bits, integer), _bits(rng, bits, integer)
        a7 = _bits(rng, bits, integer) if stop is None else -(a0 * stop * (stop - 1) + a4 * stop)
        c.update(a0=a0, a4=a4, a7=a7)
    else:  # L(s) = a2 s(s-1) + a6 s
        a2 = _bits(rng, bits, integer)
        a6 = _bits(rng, bits, integer) if stop is None else a2 * (1 - stop)
        c.update(a2=a2, a6=a6)
    return OdeSpec(**{k: scale * v for k, v in c.items()})


def _random_lam(rng, integer_share=0.3):
    """An integer, or p/q with 2 <= q <= 9."""
    if rng.random() < integer_share:
        return F(rng.randint(-6, 6))
    return F(rng.randint(-40, 40), rng.randint(2, 9))


def _walk_outcome(walk, *case):
    try:
        return walk(*case)
    except ResonantExponentError as exc:
        return str(exc)


def test_difference_walk_matches_the_row_walk_on_long_walks():
    """_band_walk steps X and F by their first and second differences, set up
    from four rows; reference_band_walk reads a row at every shift.  A wrong
    difference would grow into every later row, so these walks run 200 to
    600 steps, on 1- to 256-bit specs: most are a narrow spec times a wide
    common scale, which keeps the coefficients small while the rows are wide,
    and some have independent coefficients of up to 24 bits."""
    rng = random.Random(3709)
    kinds = Counter()
    for i in range(40):
        band, lam = rng.choice((0, 2)), _random_lam(rng)
        integer = rng.random() < 0.5
        if i % 4:
            bits = rng.randint(1, 256)
            scale = _bits(rng, bits, integer)
            spec = one_sided_spec(rng, lam, band, rng.randint(1, 3), integer, scale=scale)
        else:
            bits = rng.randint(1, 24)
            spec = one_sided_spec(rng, lam, band, bits, integer)
        steps = rng.randint(200, 600)
        case = (spec, lam, band, steps, steps + rng.randint(0, 1))
        got = _walk_outcome(_band_walk, *case)
        assert got == _walk_outcome(reference_band_walk, *case), case
        if isinstance(got, tuple) and len(got[0]) > 200:
            kinds["down" if band else "up"] += 1
            kinds["integer lam" if lam.denominator == 1 else "p/q lam"] += 1
            kinds["over 128 bits"] += max(max(abs(c.numerator), c.denominator).bit_length()
                                          for c in spec.coefficients()) > 128
    assert min(kinds.values()) >= 5 and len(kinds) == 5, kinds


def test_difference_walk_set_up_reads_rows_past_the_walk():
    """With 0 to 3 iterations the walk's four set-up rows reach past its
    last shift; a zero of X or F there must not change how it ends."""
    rng = random.Random(3710)
    for _ in range(400):
        band, lam = rng.choice((0, 2)), _random_lam(rng)
        step = 1 if band == 0 else -1
        zero_f, zero_x = rng.choice((None, 1, 2, 3)), rng.choice((None, 0, 1, 2, 3))
        spec = one_sided_spec(rng, lam, band, rng.randint(1, 256), rng.random() < 0.5,
                              lam2=None if zero_f is None else lam + zero_f * step,
                              stop=None if zero_x is None else lam + zero_x * step)
        case = (spec, lam, band, rng.randint(0, 3), rng.randint(0, 4))
        assert _walk_outcome(_band_walk, *case) == _walk_outcome(reference_band_walk, *case), case
    for band in (0, 2):
        step = 1 if band == 0 else -1
        for zero_f in (2, 3):
            lam = F(1, 3)
            spec = one_sided_spec(rng, lam, band, 256, False, lam2=lam + zero_f * step)
            psi, report = _band_walk(spec, lam, band, 1, 5)
            assert sorted(psi) == sorted((0, step)), (band, zero_f)
            assert report == SeriesReport(dropped=0, stationary_at=None)


def test_difference_walk_stops_and_resonates_at_the_exact_step():
    """X vanishes first at shift t * step and F at shift r * step (r >= 1),
    read off the factors' roots: the walk is stationary at iteration t when
    t < r, else it raises at the step onto shift r * step."""
    rng = random.Random(3711)
    ends = Counter()
    for _ in range(60):
        band = rng.choice((0, 2))
        step = 1 if band == 0 else -1
        lam = F(rng.randint(-40, 40), rng.randint(2, 9))
        while lam.denominator == 1:
            lam = F(rng.randint(-40, 40), rng.randint(2, 9))
        r, t = rng.randint(1, 300), rng.randint(0, 300)
        scale = _bits(rng, rng.randint(1, 256), rng.random() < 0.5)
        spec = one_sided_spec(rng, lam, band, rng.randint(1, 3), rng.random() < 0.5,
                              lam2=lam + r * step, stop=lam + t * step, scale=scale)
        if band == 0:  # R's roots are stop and other, with stop + other = 1 - a4 / a0
            other = 1 - spec.a4 / spec.a0 - (lam + t * step)
            shift = (other - lam) * step
            if shift.denominator == 1 and 0 <= shift < t:
                t = int(shift)
        if t < r:
            psi, report = _band_walk(spec, lam, band, 700, 700)
            assert report == SeriesReport(dropped=0, stationary_at=t), (spec, lam, t)
            assert sorted(psi) == sorted(k * step for k in range(t + 1))
            ends["stationary"] += 1
        else:
            with pytest.raises(ResonantExponentError) as exc:
                _band_walk(spec, lam, band, 700, 700)
            assert str(exc.value) == (
                f"F vanishes at generated exponent {lam + r * step} (shift {r * step})")
            ends["resonant"] += 1
    assert min(ends.values()) >= 20, ends


def test_non_indicial_exponent_message():
    """The exponent is tested on the integer row; the message still shows F
    at lam as a reduced Fraction, on an integer and on a p/q exponent."""
    spec = exact_branch_spec(F(1, 2), F(-1, 3))
    with pytest.raises(ValueError) as exc:
        series_solution_with_report(spec, F(1, 4), 3)
    assert str(exc.value) == "lambda = 1/4 is not an indicial root: F(1/4) = -7/48"
    rng = random.Random(3712)
    a1, a2, a5, a6, a8 = (_bits(rng, 256, False) for _ in range(5))
    spec = OdeSpec(a1=a1, a2=a2, a5=a5, a6=a6, a8=a8)
    for lam in (F(rng.getrandbits(64)), F(rng.getrandbits(64), rng.getrandbits(64) | 1)):
        f_lam = a1 * lam * (lam - 1) + a5 * lam + a8
        assert f_lam != 0
        with pytest.raises(ValueError) as exc:
            series_solution_with_report(spec, lam, 3)
        assert str(exc.value) == f"lambda = {lam} is not an indicial root: F({lam}) = {f_lam}"


@pytest.mark.parametrize("direction", (-1, 1))
class TestBandWalkEdges:
    """Pinned ends of a walk down (L only) or up (R only) from lam = 1/3."""

    WINDOW = 5

    def spec(self, direction, lam2=F(1, 2), stop_at=None):
        """F(s) = (s - 1/3)(s - lam2), and the walk's ladder factor vanishes on
        the branch only at shift stop_at (nowhere when stop_at is None)."""
        lam = F(1, 3)
        zero = F(1, 2) if stop_at is None else lam + stop_at
        if direction < 0:  # L(s) = a2 s(s-1) + a6 s = s (s - zero)
            ladder = {"a2": 1, "a6": 1 - zero}
        else:  # R(s) = a4 s + a7 = s - zero
            ladder = {"a4": 1, "a7": -zero}
        return OdeSpec(a1=1, a5=1 - lam - lam2, a8=lam * lam2, **ladder), lam

    def test_resonance_just_outside_the_window_raises(self, direction):
        shift = direction * (self.WINDOW + 1)
        spec, lam = self.spec(direction, lam2=F(1, 3) + shift)
        with pytest.raises(ResonantExponentError,
                           match=rf"exponent {lam + shift} \(shift {shift}\)"):
            series_solution_with_report(spec, lam, 20, self.WINDOW)

    def test_stepping_past_the_window_drops_one(self, direction):
        spec, lam = self.spec(direction)
        series, report = series_solution_with_report(spec, lam, 20, self.WINDOW)
        assert report == SeriesReport(dropped=1, stationary_at=self.WINDOW)
        assert set(series.shifts()) == {direction * m for m in range(self.WINDOW + 1)}

    def test_ladder_zero_inside_the_window_drops_none(self, direction):
        spec, lam = self.spec(direction, stop_at=direction * 2)
        series, report = series_solution_with_report(spec, lam, 20, self.WINDOW)
        assert report == SeriesReport(dropped=0, stationary_at=2)
        assert set(series.shifts()) == {0, direction, 2 * direction}
        assert full_operator(spec).apply(series).is_zero()

    def test_iterations_run_out_first(self, direction):
        spec, lam = self.spec(direction)
        series, report = series_solution_with_report(spec, lam, self.WINDOW, self.WINDOW)
        assert report == SeriesReport(dropped=0, stationary_at=None)
        assert len(series.shifts()) == self.WINDOW + 1


class TestNegativeSizes:
    def test_negative_iterations_rejected(self):
        spec = exact_branch_spec(F(1, 2), F(-1, 3))
        with pytest.raises(ValueError, match="iterations"):
            series_solution_with_report(spec, F(1, 2), -2)

    def test_negative_horizon_rejected(self):
        spec = exact_branch_spec(F(1, 2), F(-1, 3))
        with pytest.raises(ValueError, match="horizon"):
            series_solution_with_report(spec, F(1, 2), 5, horizon=-1)


class TestTermination:
    def test_kink_closures(self):
        assert termination_condition(kink_spec(F(1), F(1, 2))).values == (F(2),)
        assert termination_condition(kink_spec(F(1), F(1))).values == (F(3, 2),)

    def test_linear_case(self):
        assert termination_condition(OdeSpec(a4=1, a7=-3)).values == (F(4),)

    def test_double_factor(self):
        assert termination_condition(OdeSpec(a0=1)).values == (F(1), F(2))

    def test_never_annihilates(self):
        res = termination_condition(OdeSpec(a7=2))
        assert res.values == () and not res.all_n

    def test_identically_zero_raising(self):
        res = termination_condition(OdeSpec(a1=1, a5=1))
        assert res.all_n

    def test_verified_by_action(self):
        spec = kink_spec(F(1), F(1, 2))
        from heunalg import build_generators

        gens = build_generators(spec)
        for n in termination_condition(spec).values:
            if (n - 1).denominator in (1, 2) and n >= 1:
                assert gens.p_plus.apply_to_monomial(n - 1).is_zero()


class TestPolynomialSolution:
    def test_kink_special_eps_one_dimensional(self):
        # the terminating s = 1/2 state exists only at eps^2 = 1/2
        spec = kink_spec(F(1, 2), F(1, 2))
        result = polynomial_solution(spec, 1)
        assert len(result.basis) == 1 and result.verified
        c0, c1 = result.basis[0]
        assert c0 / c1 == F(-1, 4)

    def test_kink_generic_eps_empty_with_spectral_values(self):
        spec = kink_spec(F(1), F(1, 2))
        result = polynomial_solution(spec, 1)
        assert result.basis == ()
        # shifting a8 to any reported value makes the square block singular
        for a8 in result.spectral_a8:
            shifted = OdeSpec(
                a0=spec.a0, a1=spec.a1, a2=spec.a2, a4=spec.a4,
                a5=spec.a5, a6=spec.a6, a7=spec.a7, a8=a8,
            )
            moved = polynomial_solution(shifted, 1)
            # singular square block: either a genuine solution or a nonzero
            # kernel killed by the termination row
            assert moved.basis or moved.spectral_a8

    def test_generic_random_empty(self):
        rng = random.Random(23)
        for _ in range(5):
            spec = OdeSpec(
                a0=F(rng.randint(1, 4)), a1=F(rng.randint(-4, 4)),
                a2=F(rng.randint(1, 4)), a4=F(rng.randint(-4, 4)),
                a5=F(rng.randint(-4, 4)), a6=F(rng.randint(1, 4)),
                a7=F(rng.randint(1, 4)), a8=F(rng.randint(2, 9), 7),
            )
            assert polynomial_solution(spec, 3).basis == ()

    def test_diagonal_spec_constants(self):
        result = polynomial_solution(OdeSpec(a1=1, a5=1), 2)
        assert any(vec[0] != 0 and vec[1] == vec[2] == 0 for vec in result.basis)

    @pytest.mark.parametrize("spec, degree", [
        (OdeSpec(a1=1, a3=1, a5=2, a8=-6), 3),  # the a3-blind block solves x^2
        (OdeSpec(a1=1, a3=1, a5=3, a8=-5), 4),  # the a3-blind block has spectral values
    ])
    def test_a3_not_castable(self, spec, degree):
        with pytest.raises(NotCastableError, match="casting requires a3 = 0, got a3 = 1"):
            polynomial_solution(spec, degree)

    def test_termination_nullspace_coherence(self):
        spec = OdeSpec(a4=1, a7=-3, a1=0, a5=1, a8=0)
        n = termination_condition(spec).values[0]
        series, _ = series_solution_with_report(spec, 0, 12)
        result = polynomial_solution(spec, int(n) - 1)
        assert len(result.basis) == 1
        vec = result.basis[0]
        coeffs = {m: c for m, c in series.items()}
        scale = None
        for m, c in coeffs.items():
            if vec[m] != 0:
                scale = c / vec[m]
                break
        assert scale is not None
        assert all(vec[m] * scale == coeffs.get(m, F(0)) for m in range(len(vec)))
