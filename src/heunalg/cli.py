"""Command-line surface.

Subcommands:
    classify SPECFILE   deformation class, commutator coefficients, Casimir
    series SPECFILE     exact series solution rows for a chosen indicial branch
    kink                the phi^6-kink pipeline: profile, state, residual
    catalog             the equation-family table with computed classifications

Exit codes: 0 success, 2 unreadable/invalid input, 3 uncastable (a3 != 0),
4 resonant exponent, 5 no rational indicial root on the chosen branch,
6 kink residual above threshold.  With --format json, errors are emitted as
one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import (
    DeformationCoeffs,
    OdeSpec,
    cast_check,
    casimir,
    classify_deformation,
    deformation_coefficients,
    is_abelian,
)
from .errors import (
    DegenerateDiagonalError,
    DegenerateKinkError,
    HeunalgError,
    NoIndicialRootError,
    NotCastableError,
    ResonantExponentError,
    SpecFileError,
)
from .catalog import catalog_rows
from .kink import (
    kink_algebra,
    kink_heun_reduction,
    kink_termination,
    kink_wavefunction,
    kink_sigma_ode,
    psi_n2_sigma,
    psi_n3half_sigma,
    sigma_of_x,
)
from .solvability import indicial_roots, series_solution_with_report
from .specfile import parse_rational, read_spec_file
from .verify import residual_sigma

RESIDUAL_THRESHOLD = 1e-6

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCASTABLE = 3
EXIT_RESONANT = 4
EXIT_NO_ROOT = 5
EXIT_RESIDUAL = 6


class _BranchRootError(HeunalgError):
    """Chosen indicial branch has no rational root."""


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _emit_error(code: int, kind: str, message: str, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"error": {"exit_code": code, "kind": kind, "message": message}}),
              file=sys.stderr)
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _render(
    fmt: str,
    payload: dict,
    header: Sequence[str] = (),
    rows: Sequence[Sequence[str]] = (),
    footer: Sequence[tuple[str, str]] = (),
    notes: Sequence[str] = (),
) -> None:
    """Print one result; the only code that knows the three output formats.

    json prints the payload.  csv prints the column table, or the footer as
    one header row and one value row when there is no column table.  table
    prints left-aligned auto-width columns, then a blank line and the
    key/value footer.  Notes follow a table as '# ' lines, go to stderr with
    csv, and with json live only in the payload.
    """
    if fmt == "json":
        # a non-finite float raises ValueError (exit 2) instead of printing NaN
        print(json.dumps(payload, indent=2, allow_nan=False))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows([header, *rows] if header else list(zip(*footer)))
        for note in notes:
            print(f"# {note}", file=sys.stderr)
        return
    if header:
        widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(header)]
        for line in (header, *rows):
            print("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        if footer:
            print()
    if footer:
        width = max(len(k) for k, _ in footer)
        for k, v in footer:
            print(f"{k:<{width}}  {v}")
    for note in notes:
        print(f"# {note}")


def _deformation(coeffs: DeformationCoeffs) -> dict[str, str]:
    """alpha1..delta1 as exact strings, in the order of the cubic's powers."""
    return {name: str(getattr(coeffs, name)) for name in ("alpha1", "beta1", "gamma1", "delta1")}


# -- classify ----------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    spec = read_spec_file(args.specfile)
    kind = classify_deformation(spec)
    deformation = _deformation(deformation_coefficients(spec))
    cas = casimir(spec, m_range=10)
    ok = cast_check(spec)
    abelian = is_abelian(spec)
    payload = {
        "file": str(args.specfile),
        "j": str(spec.j),
        "class": kind,
        "abelian": abelian,
        "deformation": deformation,
        "casimir": {
            "scalar": str(cas.scalar),
            "is_scalar": cas.is_scalar,
            "g_poly": [str(c) for c in cas.g_poly],
        },
        "cast_check": ok,
    }
    footer = [
        ("file", str(args.specfile)),
        ("j", str(spec.j)),
        ("class", kind + (" (abelian)" if abelian else "")),
        *deformation.items(),
        ("casimir scalar", str(cas.scalar)),
        ("casimir is_scalar", str(cas.is_scalar).lower()),
        ("cast_check", str(ok).lower()),
    ]
    _render(args.format, payload, footer=footer)
    return EXIT_OK


# -- series ------------------------------------------------------------------


def _pick_lambda(spec: OdeSpec, branch: str) -> Fraction:
    if branch not in ("plus", "minus"):
        lam = parse_rational(branch)
        if spec.f_value(lam) != 0:
            raise _BranchRootError(f"{lam} is not an indicial root")
        return lam
    roots = indicial_roots(spec)
    if roots.irrational:
        raise _BranchRootError(
            f"indicial roots are irrational (discriminant {roots.discriminant})"
        )
    if branch == "minus" and roots.degenerate:
        # the second solution at a double root is logarithmic, out of scope
        raise _BranchRootError("indicial roots are degenerate; no second power-series branch")
    chosen = roots.lambda_plus if branch == "plus" else roots.lambda_minus
    if chosen is None:
        raise _BranchRootError(f"no rational indicial root on the {branch} branch")
    return chosen


def cmd_series(args: argparse.Namespace) -> int:
    spec = read_spec_file(args.specfile)
    lam = _pick_lambda(spec, args.branch)
    horizon = max(32, args.terms)
    series, report = series_solution_with_report(spec, lam, args.terms, horizon)
    rows = [
        {"shift": m, "exponent": str(lam + m), "coefficient": str(c)}
        for m, c in sorted(series.items())
    ]
    notes = []
    if report.stationary_at is not None:
        exponents = [lam + m for m, _ in series.items()]
        if all(e.denominator == 1 and e >= 0 for e in exponents):
            degree = max(int(e) for e in exponents)
            notes.append(f"terminated: polynomial of degree {degree}")
        else:
            notes.append(f"terminated: series stationary after {report.stationary_at} iterations")
    if report.dropped:
        notes.append(f"truncated: dropped {report.dropped} coefficients beyond |shift| <= {horizon}")
    payload = {
        "file": str(args.specfile),
        "lambda": str(lam),
        "terms": args.terms,
        "rows": rows,
        "notes": notes,
    }
    table = [[str(v) for v in row.values()] for row in rows]
    _render(args.format, payload, ("shift", "exponent", "coefficient"), table, notes=notes)
    return EXIT_OK


# -- kink --------------------------------------------------------------------


def cmd_kink(args: argparse.Namespace) -> int:
    eps_sq = parse_rational(args.eps_sq)
    mu = parse_rational(args.mu)
    if eps_sq <= 0:
        raise DegenerateKinkError("--eps-sq must be positive")
    if mu <= 0:
        raise DegenerateKinkError("--mu must be positive")
    if args.points < 2:
        raise SpecFileError("--points must be at least 2")
    xmin, xmax = args.xmin, args.xmax
    if not (math.isfinite(xmin) and math.isfinite(xmax)):
        raise SpecFileError("--xmin and --xmax must be finite")
    s = Fraction(1, 2) if args.state == "n2" else Fraction(1)
    nu_sq = 4 * (1 + eps_sq) * (1 - s * s)
    heun = kink_heun_reduction(eps_sq, s)
    algebra = kink_algebra(eps_sq, s)
    pairs = kink_termination()
    ode = kink_sigma_ode(eps_sq, 1 - s * s)
    step = (xmax - xmin) / (args.points - 1)
    grid = [k * step + xmin for k in range(args.points - 1)] + [xmax]
    psi_sigma = psi_n2_sigma(float(eps_sq)) if args.state == "n2" else psi_n3half_sigma(float(eps_sq))
    residual = residual_sigma(ode, psi_sigma, grid, mu=float(mu))
    if not residual.grid:
        raise SpecFileError(
            f"the residual check kept no grid point: all {residual.excluded_points} were excluded"
        )
    samples = [
        {
            "x": x,
            "sigma": sigma_of_x(float(eps_sq), float(mu), x),
            "psi": kink_wavefunction(args.state, float(eps_sq), float(mu), x),
        }
        for x in grid
    ]
    heun_fields = {
        "gamma": str(heun.gamma), "delta": str(heun.delta),
        "eps": str(heun.eps_h), "a": str(heun.a_sing),
        "alpha": str(heun.alpha), "beta": str(heun.beta), "q": str(heun.q),
    }
    deformation = _deformation(algebra.coeffs)
    head = [("state", args.state), ("eps_sq", str(eps_sq)), ("mu", str(mu)),
            ("s", str(s)), ("nu_sq", str(nu_sq))]
    payload = {
        **dict(head),
        "heun": heun_fields,
        "deformation": deformation,
        "termination": [[str(n), str(sv)] for n, sv in pairs],
        "max_rel_residual": residual.max_rel_residual,
        "excluded_points": residual.excluded_points,
        "rows": samples,
    }
    footer = [
        *head,
        *((f"heun {k}", v) for k, v in heun_fields.items()),
        *deformation.items(),
        ("termination", "; ".join(f"n={n}, s={sv}" for n, sv in pairs)),
        ("max_rel_residual", _fmt_float(residual.max_rel_residual)),
        ("excluded_points", str(residual.excluded_points)),
    ]
    rows = [[_fmt_float(v) for v in sample.values()] for sample in samples]
    _render(args.format, payload, ("x", "sigma", "psi"), rows, footer)
    if residual.max_rel_residual > RESIDUAL_THRESHOLD:
        if args.format != "json":
            print(
                f"# residual {_fmt_float(residual.max_rel_residual)} exceeds "
                f"{RESIDUAL_THRESHOLD:g}",
                file=sys.stderr,
            )
        return EXIT_RESIDUAL
    return EXIT_OK


# -- catalog -----------------------------------------------------------------


def cmd_catalog(args: argparse.Namespace) -> int:
    payload = {
        "rows": [
            {
                "name": r.name,
                "sample": r.sample,
                "a": [str(c) for c in r.spec.coefficients()],
                "computed": r.computed_class,
                "expected": r.expected_class,
                "match": r.matches,
                "note": r.conflict,
            }
            for r in catalog_rows()
        ]
    }
    header = ["name", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8",
              "computed", "expected", "match"]
    body = []
    for row in payload["rows"]:
        match = "-" if row["match"] is None else ("yes" if row["match"] else "NO")
        body.append([row["name"], *row["a"], row["computed"] or "-", row["expected"], match])
    notes = [f"{row['name']}: {row['note']}" for row in payload["rows"] if row["note"]]
    _render(args.format, payload, header, body, notes=notes)
    return EXIT_OK


# -- driver ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunalg",
        description="Exact ladder-operator analysis of Heun-class equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="deformation class, commutator and Casimir")
    p_classify.add_argument("specfile")

    p_series = sub.add_parser("series", help="series solution rows for an indicial branch")
    p_series.add_argument("specfile")
    p_series.add_argument("--lambda", dest="branch", default="plus",
                          help="plus, minus, or an explicit rational exponent")
    p_series.add_argument("--terms", type=int, default=10)

    p_kink = sub.add_parser("kink", help="phi^6 kink profile, state and residual")
    p_kink.add_argument("--eps-sq", dest="eps_sq", required=True,
                        help="deformation parameter squared, rational p/q > 0")
    p_kink.add_argument("--mu", default="1", help="mass scale, rational p/q > 0")
    p_kink.add_argument("--state", choices=("n2", "n3half"), default="n2")
    p_kink.add_argument("--xmin", type=float, default=-10.0)
    p_kink.add_argument("--xmax", type=float, default=10.0)
    p_kink.add_argument("--points", type=int, default=401)

    p_catalog = sub.add_parser("catalog", help="equation-family table with classifications")

    for p, func in ((p_classify, cmd_classify), (p_series, cmd_series),
                    (p_kink, cmd_kink), (p_catalog, cmd_catalog)):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.set_defaults(func=func)
    return parser


def _join_lambda_value(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--lambda VALUE`` as ``--lambda=VALUE``.

    argparse reads a separate token such as ``-5/3`` as an unknown option, so a
    negative rational exponent would otherwise need the ``=`` form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--lambda":
            out[-1] = f"--lambda={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_lambda_value(sys.argv[1:] if argv is None else argv))
    fmt = getattr(args, "format", "table")
    try:
        return args.func(args)
    except NotCastableError as exc:
        return _emit_error(EXIT_UNCASTABLE, "not-castable", str(exc), fmt)
    except ResonantExponentError as exc:
        return _emit_error(EXIT_RESONANT, "resonant-exponent", str(exc), fmt)
    except (_BranchRootError, NoIndicialRootError, DegenerateDiagonalError) as exc:
        return _emit_error(EXIT_NO_ROOT, "no-indicial-root", str(exc), fmt)
    except (SpecFileError, DegenerateKinkError, ValueError) as exc:
        return _emit_error(EXIT_INPUT, "input", str(exc), fmt)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
