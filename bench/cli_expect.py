"""Expected exit code and output of each CLI task, computed in-process from
the library before the timed rounds.

Exit codes follow the documented contract of ``heunalg.cli``: 0 success,
3 uncastable, 4 resonant exponent, 5 no rational indicial root on the chosen
branch, 6 kink residual above threshold.  The closed-form kink states exit 6
by design (acceptance criterion 7).
"""

from __future__ import annotations

from fractions import Fraction

import heunalg as h

RESIDUAL_THRESHOLD = 1e-6  # documented kink threshold
CLI_GRID = (-10.0, 10.0, 401)  # heunalg kink defaults: --xmin, --xmax, --points


def expect(params: dict) -> tuple[int, dict]:
    sub = params["argv"][0]
    if sub == "classify":
        return _classify(params)
    if sub == "series":
        return _series(params)
    if sub == "kink":
        return _kink(params)
    return _catalog()


def _classify(p: dict) -> tuple[int, dict]:
    spec = p["spec"]
    if spec.a3 != 0:
        return 3, {}
    kind = h.classify_deformation(spec)
    c = h.deformation_coefficients(spec)
    cas = h.casimir(spec, m_range=10)
    abelian = h.is_abelian(spec)
    cast_ok = h.cast_check(spec)
    return 0, {
        "json": {
            "file": p["argv"][1],
            "j": str(spec.j),
            "class": kind,
            "abelian": abelian,
            "deformation": {"alpha1": str(c.alpha1), "beta1": str(c.beta1),
                            "gamma1": str(c.gamma1), "delta1": str(c.delta1)},
            "casimir": {"scalar": str(cas.scalar), "is_scalar": cas.is_scalar,
                        "g_poly": [str(v) for v in cas.g_poly]},
            "cast_check": cast_ok,
        },
        "lines": {"table": 10, "csv": 2},
        "tokens": [kind, str(c.alpha1), str(c.delta1), str(cas.scalar)],
    }


def _series(p: dict) -> tuple[int, dict]:
    spec, terms = p["spec"], p["terms"]
    if p["lam"] in ("plus", "minus"):
        roots = h.indicial_roots(spec)
        if roots.irrational:
            return 5, {}
        raise ValueError("series tasks name lambda explicitly unless the roots are irrational")
    lam = Fraction(p["lam"])
    try:
        series, _report = h.series_solution_with_report(spec, lam, terms, max(32, terms))
    except h.NotCastableError:
        return 3, {}
    except h.ResonantExponentError:
        return 4, {}
    rows = [{"shift": m, "exponent": str(lam + m), "coefficient": str(c)}
            for m, c in sorted(series.items())]
    return 0, {
        "json": {"file": p["argv"][1], "lambda": str(lam), "terms": terms, "rows": rows},
        "lines": {"table": 1 + len(rows), "csv": 1 + len(rows)},
        "tokens": [str(lam), rows[-1]["coefficient"]],
    }


def _grid() -> list[float]:
    lo, hi, n = CLI_GRID
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _kink(p: dict) -> tuple[int, dict]:
    eps_sq, state = p["eps_sq"], p["state"]
    s = Fraction(1, 2) if state == "n2" else Fraction(1)
    heun = h.kink_heun_reduction(eps_sq, s)
    algebra = h.kink_algebra(eps_sq, s)
    pairs = h.kink_termination()
    ode = h.kink_sigma_ode(eps_sq, 1 - s * s)
    psi = h.psi_n2_sigma(float(eps_sq)) if state == "n2" else h.psi_n3half_sigma(float(eps_sq))
    grid = _grid()
    residual = h.residual_sigma(ode, psi, grid, mu=1.0)
    rows = [{"x": x, "sigma": h.sigma_of_x(float(eps_sq), 1.0, x),
             "psi": h.kink_wavefunction(state, float(eps_sq), 1.0, x)} for x in grid]
    code = 6 if residual.max_rel_residual > RESIDUAL_THRESHOLD else 0
    c = algebra.coeffs
    return code, {
        "json": {
            "state": state, "eps_sq": str(eps_sq), "mu": "1", "s": str(s),
            "nu_sq": str(4 * (1 + eps_sq) * (1 - s * s)),
            "heun": {"gamma": str(heun.gamma), "delta": str(heun.delta), "eps": str(heun.eps_h),
                     "a": str(heun.a_sing), "alpha": str(heun.alpha), "beta": str(heun.beta),
                     "q": str(heun.q)},
            "deformation": {"alpha1": str(c.alpha1), "beta1": str(c.beta1),
                            "gamma1": str(c.gamma1), "delta1": str(c.delta1)},
            "termination": [[str(n), str(sv)] for n, sv in pairs],
            "excluded_points": residual.excluded_points,
            "max_rel_residual": residual.max_rel_residual,
        },
        "float_rows": rows,
        "lines": {"table": 1 + len(grid) + 19, "csv": 1 + len(grid)},
        "tokens": ["sigma", "psi"],
    }


def _catalog() -> tuple[int, dict]:
    rows = h.catalog_rows()
    return 0, {
        "json": {"rows": [
            {"name": r.name, "sample": r.sample, "a": [str(c) for c in r.spec.coefficients()],
             "computed": r.computed_class, "expected": r.expected_class,
             "match": r.matches, "note": r.conflict}
            for r in rows
        ]},
        "lines": {"table": 1 + len(rows), "csv": 1 + len(rows)},
        "tokens": [r.name for r in rows],
    }
