"""Seeded inputs and task lists of the four workloads.

``generate`` makes a workload's inputs from its seed (and writes the spec
files the CLI reads); ``make_tasks`` turns them into timed calls with their
exact checks.  The program sees only the generated inputs.

Inputs are drawn in fixed strata (family, bit-length, N, degree), with a fixed
number of tasks per stratum and generators that reject inputs which would
resonate or terminate early where that is not the stratum's point.  So a
different seed changes the numbers but not how much work a round is, and the
number of unsupported tasks is the same for every seed.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F

import heunalg as h

import checks
import cli_expect
from harness import Task, child_env, run_child


# ladder-algebra: coefficient bit-length -> specs per family.  The extra
# 256-bit specs put the p90 rank inside the costliest stratum, not on the
# edge between two strata.
LADDER_BITS = {4: 8, 16: 8, 64: 8, 256: 12}
LADDER_FAMILIES = ("heun", "confluent", "biconfluent", "doubly_confluent", "generic")
LADDER_JACOBI_PER_BITS = 2  # a3 = 1: documented NotCastableError

# series-growth: N -> task count, most tasks small with a large-N tail; the
# N = 64 stratum is large enough to hold the p90 rank.
SERIES_ES = {16: 40, 32: 20, 64: 16, 128: 2, 192: 1}
SERIES_QES = {16: 12, 32: 6}
# QES specs iterated past the library's default horizon (32): the shifts beyond
# it are dropped and counted, and the iteration goes stationary at k = 32.
SERIES_QES_TRUNCATED = 6
SERIES_QES_TRUNCATED_N = 48
SERIES_MIXED = 12
SERIES_MIXED_N = 32

# spectral-degree: the kink ladders are fixed so that the heavy tail, whose
# cost follows the constant term handed to rational_roots, is the same work
# for every seed and holds the p90 rank; the seed varies the degree-1 kink
# cases and the QES specs, which all stay cheap.  The QES counts put the
# median inside the degree-12 stratum.
SPECTRAL_KINK_LADDER = (
    (F(1, 3), F(1, 2), range(1, 9)),
    (F(11, 13), F(3, 4), range(1, 5)),
    (F(1, 4), F(1, 2), range(4, 7)),
    (F(3), F(1, 2), range(4, 7)),
)
SPECTRAL_KINK_SEEDED = 20  # (eps^2, s) pairs at degree 1
SPECTRAL_KINK_DEGENERATE = 6  # eps^2 <= 0: documented DegenerateKinkError
SPECTRAL_QES = {4: 8, 8: 8, 12: 24, 16: 30}
# Degrees where trial-division rational_roots does not finish; traced runs only.
SPECTRAL_HANG_PROBES = ((F(1, 3), F(1, 2), 12), (F(11, 13), F(3, 4), 8))

CLI_FORMATS = ("table", "json", "csv")
CLI_SERIES_TERMS = 16


@dataclass
class Item:
    """One generated input: which call (``kind``), its stratum for reporting
    (``group``) and its arguments."""

    kind: str
    group: str
    params: dict = field(default_factory=dict)


def generate(workload: str, seed: int, workdir: str) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder-algebra":
        return _ladder_items(rng)
    if workload == "series-growth":
        return _series_items(rng)
    if workload == "spectral-degree":
        return _spectral_items(rng)
    if workload == "cli-session":
        return _cli_items(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- random rationals -------------------------------------------------------------


def _bits_rational(rng: random.Random, bits: int) -> F:
    """Numerator and denominator of exactly ``bits`` bits before reduction."""
    num = rng.getrandbits(bits) | (1 << (bits - 1))
    den = rng.getrandbits(bits) | (1 << (bits - 1))
    return F(-num if rng.random() < 0.5 else num, den)


def _small(rng: random.Random, lo: int, hi: int, nonzero: bool = False) -> F:
    while True:
        value = F(rng.randint(lo, hi))
        if value or not nonzero:
            return value


# -- ladder-algebra -----------------------------------------------------------------


def family_spec(rng: random.Random, family: str, bits: int) -> h.OdeSpec:
    def r():
        return _bits_rational(rng, bits)

    if family == "heun":
        while True:
            a_sing = r()
            if a_sing not in (0, 1):
                break
        params = h.HeunParams(gamma=r(), delta=r(), eps_h=r(), a_sing=a_sing,
                              alpha=r(), beta=r(), q=r())
        return h.heun_spec(params, j=r())
    if family == "confluent":
        return h.confluent_heun_spec(r(), r(), r(), r(), r(), j=r())
    if family == "biconfluent":
        return h.biconfluent_heun_spec(r(), r(), r(), r(), j=r())
    if family == "doubly_confluent":
        return h.doubly_confluent_spec(r(), r(), r(), r(), j=r())
    if family == "generic":
        return h.OdeSpec(a0=r(), a1=r(), a2=r(), a4=r(), a5=r(), a6=r(), a7=r(), a8=r(), j=r())
    if family == "jacobi":
        return h.jacobi_spec(r(), r(), r(), j=r())
    raise ValueError(family)


def _ladder_items(rng: random.Random) -> list[Item]:
    items = []
    for bits, per_family in LADDER_BITS.items():
        for family in LADDER_FAMILIES:
            for _ in range(per_family):
                items.append(Item("ladder", f"{family}-{bits}b",
                                  {"spec": family_spec(rng, family, bits)}))
        for _ in range(LADDER_JACOBI_PER_BITS):
            items.append(Item("ladder", f"jacobi-{bits}b", {"spec": family_spec(rng, "jacobi", bits)}))
    return items


def _ladder_run(spec):
    return (
        h.deformation_coefficients(spec),
        h.brute_force_deformation(spec),
        h.casimir(spec),
        h.casimir_operator(spec),
        h.cast_check(spec),
    )


# -- series-growth ------------------------------------------------------------------


def _thirds(rng: random.Random) -> F:
    """p/3 with p not a multiple of 3.  Fixed denominators keep the growth of
    the series coefficients, and so the cost of a stratum, alike across seeds."""
    return F(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), 3)


def es_spec(rng: random.Random, n: int) -> tuple[h.OdeSpec, F]:
    """Exactly solvable (a0 = a4 = a7 = 0) with rational roots lam, lam2 whose
    difference is not an integer, and no termination within n terms."""
    while True:
        lam = _thirds(rng)
        lam2 = lam + F(2 * rng.choice((1, 2, 3, 4, 6, 7, 8, 9)), 5)
        a1, a2, a6 = F(1), F(1), _small(rng, -2, 2)
        spec = h.OdeSpec(a1=a1, a2=a2, a5=a1 * (1 - lam - lam2), a6=a6, a8=a1 * lam * lam2)
        lower = [checks.monomial_images(spec.coefficients(), lam - m + 1)[-1] for m in range(1, n + 1)]
        if all(lower):
            return spec, lam


def qes_series_spec(rng: random.Random, n: int) -> tuple[h.OdeSpec, F]:
    """Quasi-exactly solvable (a2 = a6 = 0) with rational root lam and neither
    resonance nor termination inside the first n shifts."""
    while True:
        lam = _thirds(rng)
        a0 = _small(rng, -2, 2, nonzero=True)
        a1, a4, a5, a7 = _small(rng, 1, 4), _small(rng, -3, 3), _small(rng, -3, 3), _small(rng, -3, 3)
        spec = h.OdeSpec(a0=a0, a1=a1, a4=a4, a5=a5, a7=a7, a8=-(a1 * lam * (lam - 1) + a5 * lam))
        a = spec.coefficients()
        images = [checks.monomial_images(a, lam + m) for m in range(n + 2)]
        if all(img[0] for img in images[1:]) and all(img[1] for img in images[:n + 1]):
            return spec, lam


def mixed_spec(rng: random.Random) -> tuple[h.OdeSpec, F]:
    """Both a raising and a lowering part, a8 set so that F(lam) = 0, and a
    fixed-point iteration that resonates (the documented fast path)."""
    while True:
        lam = F(rng.randint(-5, 5), rng.randint(1, 3))
        a0, a2 = _small(rng, 1, 3), _small(rng, 1, 5)
        a1, a4, a5 = _small(rng, -5, 5), _small(rng, -5, 5), _small(rng, -5, 5)
        a6, a7 = _small(rng, -5, 5), _small(rng, -5, 5)
        spec = h.OdeSpec(a0=a0, a1=a1, a2=a2, a4=a4, a5=a5, a6=a6, a7=a7,
                         a8=-(a1 * lam * (lam - 1) + a5 * lam))
        if checks.resonant_at_second_step(spec, lam):
            return spec, lam


def _series_items(rng: random.Random) -> list[Item]:
    items = []
    for n, count in SERIES_ES.items():
        for _ in range(count):
            spec, lam = es_spec(rng, n)
            items.append(Item("es-series", f"es-N{n}",
                              {"spec": spec, "lam": lam, "n": n, "horizon": n}))
    for n, count in SERIES_QES.items():
        for _ in range(count):
            spec, lam = qes_series_spec(rng, n)
            items.append(Item("series", f"qes-N{n}", {"spec": spec, "lam": lam, "n": n, "horizon": n}))
    for _ in range(SERIES_QES_TRUNCATED):
        spec, lam = qes_series_spec(rng, h.solvability.DEFAULT_HORIZON)
        items.append(Item("series", "qes-truncated",
                          {"spec": spec, "lam": lam, "n": SERIES_QES_TRUNCATED_N, "horizon": None}))
    for _ in range(SERIES_MIXED):
        spec, lam = mixed_spec(rng)
        items.append(Item("series", f"mixed-N{SERIES_MIXED_N}",
                          {"spec": spec, "lam": lam, "n": SERIES_MIXED_N, "horizon": SERIES_MIXED_N}))
    return items


# -- spectral-degree ----------------------------------------------------------------


def qes_polynomial_spec(rng: random.Random, degree: int) -> h.OdeSpec:
    """a2 = a6 = 0, a8 = 0 (so F(0) = 0) and termination at n = degree + 1, so a
    polynomial solution of exactly the given degree exists.  Fixing both levels
    makes every spec of a degree cost about the same."""
    n = degree + 1
    while True:
        a0 = _small(rng, -2, 2, nonzero=True)
        a1, a4, a5 = _small(rng, -3, 3), _small(rng, -3, 3), _small(rng, -3, 3)
        spec = h.OdeSpec(a0=a0, a1=a1, a4=a4, a5=a5, a7=-(a0 * (n - 1) * (n - 2) + a4 * (n - 1)))
        a = spec.coefficients()
        if all(checks.monomial_images(a, F(m))[0] for m in range(1, n)):
            return spec


def _spectral_items(rng: random.Random) -> list[Item]:
    items = []
    for eps_sq, s, degrees in SPECTRAL_KINK_LADDER:
        for d in degrees:
            items.append(Item("kink", f"kink-d{d}", {"eps_sq": eps_sq, "s": s, "degree": d}))
    for _ in range(SPECTRAL_KINK_SEEDED):
        eps_sq = F(rng.randint(1, 4), rng.randint(1, 4))
        items.append(Item("kink", "kink-d1", {"eps_sq": eps_sq, "s": F(rng.randint(2, 4), 4),
                                              "degree": 1}))
    for _ in range(SPECTRAL_KINK_DEGENERATE):
        eps_sq = F(-rng.randint(0, 9), rng.randint(1, 9))
        items.append(Item("kink", "kink-degenerate", {"eps_sq": eps_sq, "s": F(rng.randint(1, 4), 4),
                                                      "degree": rng.randint(1, 4)}))
    for d, count in SPECTRAL_QES.items():
        for _ in range(count):
            items.append(Item("polynomial", f"qes-d{d}",
                              {"spec": qes_polynomial_spec(rng, d), "degree": d}))
    return items


# -- cli-session --------------------------------------------------------------------


def spec_text(spec: h.OdeSpec) -> str:
    names = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")
    lines = [f"{k} = {v}" for k, v in zip(names, spec.coefficients()) if v]
    if spec.j:
        lines.append(f"j = {spec.j}")
    return "\n".join(lines) + "\n"


def _irrational_spec(rng: random.Random) -> h.OdeSpec:
    """Exactly solvable spec whose indicial discriminant is not a square."""
    while True:
        a1, a5, a8 = _small(rng, 1, 4), _small(rng, -6, 6), _small(rng, -9, 9)
        disc = (a5 - a1) ** 2 - 4 * a1 * a8
        if disc > 0 and not h.polynomials.is_rational_square(disc)[0]:
            return h.OdeSpec(a1=a1, a2=_small(rng, 1, 5), a5=a5, a6=_small(rng, -4, 4), a8=a8)


def _cli_items(rng: random.Random, workdir: str) -> list[Item]:
    specdir = os.path.join(workdir, "specs")
    os.makedirs(specdir, exist_ok=True)
    written = 0

    def write(spec) -> str:
        nonlocal written
        path = os.path.join(specdir, f"s{written:03d}.spec")
        written += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec_text(spec))
        return path

    # Counts: as many classify runs (the costliest) as cheap runs (kink,
    # catalog, series that end in exit 3, 4 or 5), so that the median falls
    # inside the successful series runs and p90 inside classify.
    jobs: list[tuple[str, list[str], dict]] = []
    classify = [family_spec(rng, LADDER_FAMILIES[k % len(LADDER_FAMILIES)], 4) for k in range(12)]
    classify.append(family_spec(rng, "jacobi", 4))
    for spec in classify:
        jobs.append(("classify", [write(spec)], {"spec": spec}))
    series = []
    for _ in range(5):
        spec, lam = es_spec(rng, CLI_SERIES_TERMS)
        series.append((spec, str(lam), CLI_SERIES_TERMS))
    for _ in range(5):
        spec, lam = qes_series_spec(rng, CLI_SERIES_TERMS)
        series.append((spec, str(lam), CLI_SERIES_TERMS))
    for _ in range(3):
        spec, lam = mixed_spec(rng)
        series.append((spec, str(lam), 16))
    for _ in range(2):
        series.append((_irrational_spec(rng), "plus", 8))
    spec, lam = es_spec(rng, 8)
    series.append((h.OdeSpec(*spec.coefficients()[:3], F(1), *spec.coefficients()[4:]), str(lam), 8))
    for spec, lam, terms in series:
        jobs.append(("series", [write(spec), f"--lambda={lam}", "--terms", str(terms)],
                     {"spec": spec, "lam": lam, "terms": terms}))
    for _ in range(3):
        eps_sq = F(rng.randint(1, 9), rng.randint(1, 9))
        for state in ("n2", "n3half"):
            jobs.append(("kink", ["--eps-sq", str(eps_sq), "--state", state],
                         {"eps_sq": eps_sq, "state": state}))
    jobs.append(("catalog", [], {}))
    items = []
    for sub, args, params in jobs:
        for fmt in CLI_FORMATS:
            items.append(Item("cli", f"cli-{sub}",
                              dict(params, argv=[sub, *args, "--format", fmt], fmt=fmt)))
    return items


# -- tasks ----------------------------------------------------------------------------


@dataclass
class CliContext:
    """How CLI tasks start their child: plain, or through the tracing shim."""

    root: str
    workdir: str
    traced: bool = False

    def argv(self, args: list[str]) -> list[str]:
        if self.traced:
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
            return [sys.executable, shim, self.span_path, *args]
        return [sys.executable, "-m", "heunalg.cli", *args]

    @property
    def span_path(self) -> str:
        return os.path.join(self.workdir, "child_spans.json")

    @property
    def env(self) -> dict:
        return child_env(os.path.join(self.root, "src"))


def make_tasks(items: list[Item], cli: CliContext | None = None) -> list[Task]:
    """Timed calls with their checks; CLI items need ``cli`` and get their
    expected results computed here, in-process."""
    return [_task(item, cli) for item in items]


def _task(item: Item, cli: CliContext | None) -> Task:
    p, g = item.params, item.group
    if item.kind == "ladder":
        spec = p["spec"]
        return Task(g, lambda: _ladder_run(spec), lambda res: checks.ladder(spec, res), f"{g} {spec}")
    if item.kind == "es-series":
        spec, lam, n, window = p["spec"], p["lam"], p["n"], p["horizon"]
        return Task(g, lambda: h.series_solution_with_report(spec, lam, n, horizon=window),
                    lambda res: checks.series_oracle(spec, lam, n + 1, res), f"{g} lam={lam}")
    if item.kind == "series":
        spec, lam, n, window = p["spec"], p["lam"], p["n"], p["horizon"]
        return Task(g, lambda: h.series_solution_with_report(spec, lam, n, horizon=window),
                    lambda res: checks.series_substitution(spec, lam, res), f"{g} lam={lam}")
    if item.kind == "kink":  # kink_spec inside the task: eps^2 <= 0 must raise there
        e2, s, d = p["eps_sq"], p["s"], p["degree"]
        return Task(g, lambda: h.polynomial_solution(h.kink_spec(e2, s), d),
                    lambda res: checks.polynomial(h.kink_spec(e2, s), d, res),
                    f"{g} eps_sq={e2} s={s}")
    if item.kind == "polynomial":
        spec, d = p["spec"], p["degree"]
        return Task(g, lambda: h.polynomial_solution(spec, d),
                    lambda res: checks.polynomial(spec, d, res), f"{g} {spec}")
    if item.kind == "cli":
        code, expected = cli_expect.expect(p)
        env, argv = cli.env, p["argv"]
        return Task(g, lambda: run_child(cli.argv(argv), env, cli.root, cli.workdir),
                    lambda res: checks.cli_output(expected, p["fmt"], res),
                    " ".join(argv), expect_code=code)
    raise ValueError(item.kind)


def hang_probes() -> list[Task]:
    return [_task(Item("kink", f"kink-d{d}", {"eps_sq": e2, "s": s, "degree": d}), None)
            for e2, s, d in SPECTRAL_HANG_PROBES]
