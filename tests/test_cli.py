"""Command-line behavior: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from heunalg import (
    DiffOp,
    OdeSpec,
    full_operator,
    kink_spec,
    polynomial_solution,
    series_solution_with_report,
)
from heunalg.cli import main
from heunalg.solvability import DEFAULT_HORIZON

HEUN_FILE = """\
# Heun family member: c=2, gamma=delta=eps=1/2, alpha=1, beta=2, q=1
a0 = 1
a1 = -3
a2 = 2
a4 = 3/2
a5 = -3
a6 = 1
a7 = 2
a8 = -1
"""

EXACT_FILE = """\
a1 = 1
a2 = 2
a5 = 3
a6 = 1
a8 = -3
"""

QES_FILE = """\
a4 = 1
a5 = 1
a7 = -3
"""


@pytest.fixture
def heun_path(tmp_path):
    p = tmp_path / "heun.spec"
    p.write_text(HEUN_FILE)
    return str(p)


@pytest.fixture
def exact_path(tmp_path):
    p = tmp_path / "exact.spec"
    p.write_text(EXACT_FILE)
    return str(p)


class TestClassify:
    def test_heun_sample(self, heun_path, capsys):
        assert main(["classify", heun_path]) == 0
        out = capsys.readouterr().out
        assert "cubic" in out
        assert "alpha1" in out and "-8" in out
        assert "casimir scalar" in out and "2" in out

    def test_uncastable_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.spec"
        p.write_text("a0 = 1\na3 = 1\n")
        assert main(["classify", str(p)]) == 3
        assert "a3" in capsys.readouterr().err

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.spec"
        p.write_text("a0 = 1/0\n")
        assert main(["classify", str(p)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("a9 = 1\n")
        assert main(["classify", str(p)]) == 2

    def test_duplicate_key_exit_2(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_text("a1 = 1\na1 = 2\n")
        assert main(["classify", str(p)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["classify", "/nonexistent/nowhere.spec"]) == 2

    def test_json_error_object(self, tmp_path, capsys):
        p = tmp_path / "bad.spec"
        p.write_text("a0 = 1\na3 = 1\n")
        assert main(["classify", str(p), "--format", "json"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 3
        assert err["error"]["kind"] == "not-castable"

    def test_json_payload_rationals_as_strings(self, heun_path, capsys):
        assert main(["classify", heun_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deformation"]["alpha1"] == "-8"
        assert payload["casimir"]["scalar"] == "2"
        assert payload["cast_check"] is True


class TestSeries:
    def test_exact_branch_rows_match_oracle(self, exact_path, capsys):
        assert main(["series", exact_path, "--terms", "10", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "shift,exponent,coefficient"
        rows = [line.split(",") for line in out[1:]]
        assert ["-1", "0", "1/3"] in rows and ["0", "1", "1"] in rows

    def test_zero_terms_single_seed_row(self, exact_path, capsys):
        assert main(["series", exact_path, "--terms", "0", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + seed

    def test_terminated_note(self, tmp_path, capsys):
        p = tmp_path / "qes.spec"
        p.write_text(QES_FILE)
        assert main(["series", str(p), "--lambda", "0", "--terms", "12"]) == 0
        out = capsys.readouterr().out
        assert "polynomial of degree 3" in out

    @pytest.mark.parametrize("text, lam, exponents", [
        ("a1 = 1\na2 = 1\na6 = 5/3\na8 = 2/9\n", "1/3", ["-2/3", "1/3"]),  # L(-2/3) = 0
        ("a1 = 1\na2 = 1\na5 = 2\na6 = 3\n", "-1", ["-2", "-1"]),  # L(-2) = 0
    ])
    def test_stationary_note_when_rows_are_no_polynomial(self, tmp_path, capsys, text, lam,
                                                          exponents):
        """A series that stops with a fractional or negative exponent is not a
        polynomial, so the note names the iteration it stopped at instead."""
        p = tmp_path / "stops.spec"
        p.write_text(text)
        assert main(["series", str(p), "--lambda", lam, "--terms", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["exponent"] for row in payload["rows"]] == exponents
        assert payload["notes"] == ["terminated: series stationary after 1 iterations"]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_rows_past_default_horizon_all_printed(self, tmp_path, capsys, fmt):
        p = tmp_path / "long.spec"
        p.write_text("a1 = 6\na2 = 2\na5 = 13\na6 = 1\na8 = -3\n")
        argv = ["series", str(p), "--lambda", "1/3", "--terms", "40", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            rows = [[str(r["shift"]), r["exponent"], r["coefficient"]] for r in payload["rows"]]
            notes = payload["notes"]
        else:
            lines = out.splitlines()
            rows = [line.split() for line in lines[1:] if not line.startswith("#")]
            notes = [line for line in lines if line.startswith("#")]
        spec = OdeSpec(a1=6, a2=2, a5=13, a6=1, a8=-3)
        series, report = series_solution_with_report(spec, F(1, 3), 40, 40)
        want = [[str(m), str(F(1, 3) + m), str(c)] for m, c in sorted(series.items())]
        assert len(want) == 41 > DEFAULT_HORIZON and report.dropped == 0
        assert rows == want
        assert not any("truncat" in note for note in notes), notes

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_residual_inside_rows_noted(self, tmp_path, capsys, fmt):
        """Two-sided rows can leave a residual between their first and last shift;
        the rows and exit code stay, and a note says they are not a solution."""
        p = tmp_path / "two.spec"
        p.write_text("a0 = 2\na1 = -2\na2 = 3/2\na4 = 3\na5 = -2\na7 = -2\n")
        argv = ["series", str(p), "--lambda", "0", "--terms", "6", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            shifts = [r["shift"] for r in payload["rows"]]
            notes = payload["notes"]
        else:
            lines = out.splitlines()
            shifts = [int(line.split()[0]) for line in lines[1:] if not line.startswith("#")]
            notes = [line[2:] for line in lines if line.startswith("# ")]
        spec = OdeSpec(a0=2, a1=-2, a2=F(3, 2), a4=3, a5=-2, a7=-2)
        series = series_solution_with_report(spec, 0, 6, 6)[0]
        assert shifts == list(series.shifts()) == list(range(7))
        assert full_operator(spec).apply(series).shifts()[:3] == (1, 3, 5)
        assert notes == ["residual nonzero at shift 1 inside the rows: they are not a solution"]

    def test_certificates_build_no_fraction_image(self, tmp_path, capsys, monkeypatch):
        """polynomial_solution's verified and the series residual note read the
        integer zero test DiffOp.image_support; DiffOp.apply is never called."""
        def refuse(op, series):
            raise AssertionError("a certificate built the Fraction image")

        monkeypatch.setattr(DiffOp, "apply", refuse)
        result = polynomial_solution(kink_spec(F(1, 2), F(1, 2)), 1)
        assert len(result.basis) == 1 and result.verified
        p = tmp_path / "two.spec"
        p.write_text("a0 = 2\na1 = -2\na2 = 3/2\na4 = 3\na5 = -2\na7 = -2\n")
        assert main(["series", str(p), "--lambda", "0", "--terms", "6", "--format", "json"]) == 0
        notes = json.loads(capsys.readouterr().out)["notes"]
        assert notes == ["residual nonzero at shift 1 inside the rows: they are not a solution"]

    def test_resonance_exit_4(self, tmp_path):
        p = tmp_path / "res.spec"
        p.write_text("a1 = 1\na2 = 1\na5 = -1\na6 = 3\n")
        assert main(["series", str(p), "--lambda", "2", "--terms", "10"]) == 4

    def test_irrational_branch_exit_5(self, tmp_path):
        p = tmp_path / "irr.spec"
        p.write_text("a1 = 1\na2 = 1\na8 = -1\n")  # roots (1 +- sqrt 5)/2
        assert main(["series", str(p), "--terms", "5"]) == 5

    def test_degenerate_minus_branch_exit_5(self, tmp_path):
        p = tmp_path / "deg.spec"
        p.write_text("a1 = 1\na2 = 1\na5 = 2\na8 = 1/4\n")  # double root -1/2
        assert main(["series", str(p), "--lambda", "minus", "--terms", "3"]) == 5
        assert main(["series", str(p), "--lambda", "plus", "--terms", "3"]) == 0

    @pytest.mark.parametrize("branch", ["plus", "minus", "1/2"])
    def test_uncastable_exit_3_on_every_branch(self, tmp_path, capsys, branch):
        p = tmp_path / "a3.spec"
        p.write_text("a1 = 1\na3 = 1\na8 = -1\n")  # F's roots are irrational, and 1/2 is none
        assert main(["series", str(p), "--lambda", branch, "--terms", "5", "--format", "json"]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "not-castable"

    def test_explicit_lambda_value(self, exact_path, capsys):
        assert main(["series", exact_path, "--lambda", "-3", "--terms", "3",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "0,-3,1" in out  # the seed row; deeper shifts sort before it

    def test_explicit_non_root_exit_5(self, exact_path):
        assert main(["series", exact_path, "--lambda", "7", "--terms", "3"]) == 5

    @pytest.mark.parametrize("form", (["--lambda", "-5/3"], ["--lambda=-5/3"]))
    def test_negative_rational_lambda(self, tmp_path, capsys, form):
        p = tmp_path / "neg.spec"
        p.write_text("a1 = 3\na2 = 1\na5 = 5\na8 = -5\n")  # roots 1 and -5/3
        assert main(["series", str(p), *form, "--terms", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "0,-5/3,1" in out

    def test_negative_terms_exit_2(self, exact_path, capsys):
        assert main(["series", exact_path, "--terms", "-2"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_negative_terms_names_the_option(self, exact_path, capsys):
        assert main(["series", exact_path, "--terms", "-2", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {
            "exit_code": 2, "kind": "input", "message": "--terms must be nonnegative"}


class TestKink:
    def test_n2_full_grid_exits_6(self, capsys):
        # the closed-form state misses the equation; the residual gate trips
        code = main(["kink", "--eps-sq", "1", "--state", "n2",
                     "--xmin", "-10", "--xmax", "10", "--points", "101"])
        assert code == 6
        out = capsys.readouterr().out
        assert "max_rel_residual" in out
        assert "alpha1" in out and "termination" in out

    def test_n3half_psi_zero_at_origin(self, capsys):
        main(["kink", "--eps-sq", "1", "--state", "n3half",
              "--xmin", "-2", "--xmax", "2", "--points", "5", "--format", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,sigma,psi"
        middle = out[3].split(",")
        assert float(middle[0]) == 0.0 and float(middle[2]) == 0.0

    def test_eps_zero_rejected(self, capsys):
        for option, value in (("--eps-sq", "0"), ("--mu", "-1")):
            message = f"{option} must be a positive number within double range"
            for fmt in ("table", "json"):
                argv = ["kink", "--eps-sq", "1", "--state", "n2", option, value, "--format", fmt]
                assert main(argv) == 2
                out, err = capsys.readouterr()
                assert out == ""
                if fmt == "json":
                    error = {"exit_code": 2, "kind": "input", "message": message}
                    assert json.loads(err)["error"] == error
                else:
                    assert err == f"error (input): {message}\n"

    @pytest.mark.parametrize("bound", (["--xmin", "nan"], ["--xmin=-inf"], ["--xmax", "inf"]))
    def test_non_finite_bound_exit_2(self, bound, capsys):
        assert main(["kink", "--eps-sq", "1", *bound, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == "--xmin and --xmax must be finite"

    def test_all_points_excluded_exit_2(self, capsys):
        # sigma is within the guard distance of 1 on the whole grid
        assert main(["kink", "--eps-sq", "1", "--state", "n3half",
                     "--xmin", "50", "--xmax", "60", "--points", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "kept no grid point" in err

    def test_json_never_holds_nan(self, capsys):
        # every point lies within the guard of sigma = 1, so the residual check keeps none:
        # the call must end in a JSON input error and print no payload
        assert main(["kink", "--eps-sq", "1", "--xmin", "900", "--xmax", "1000",
                     "--points", "3", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_json_footer_fields(self, capsys):
        main(["kink", "--eps-sq", "1", "--state", "n2", "--points", "11",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu_sq"] == "6"
        assert payload["heun"]["q"] == "3/2"
        assert payload["deformation"]["alpha1"] == "4"
        assert payload["termination"] == [["3/2", "1"], ["2", "1/2"]]
        assert len(payload["rows"]) == 11


class TestCatalog:
    def test_rows_and_jacobi_note(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("Heun", "Confluent Heun", "Bi-Confluent Heun",
                     "Doubly Confluent", "Jacobi"):
            assert name in out
        assert "casting conflict" in out
        assert "NO" not in out  # no mismatched classifications

    def test_output_stable_across_runs(self, capsys):
        main(["catalog"])
        first = capsys.readouterr().out
        main(["catalog"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        assert main(["catalog", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,a0,a1")
        assert len(lines) == 6

    def test_golden_table(self, capsys):
        main(["catalog"])
        expected = (
            "name               a0  a1  a2  a3  a4   a5  a6  a7  a8  computed   expected   match\n"
            "Heun               1   -3  2   0   3/2  -3  1   2   -1  cubic      cubic      yes\n"
            "Confluent Heun     0   1   -1  0   2    0   -1  2   0   quadratic  quadratic  yes\n"
            "Bi-Confluent Heun  0   0   1   0   -2   0   2   0   0   quadratic  quadratic  yes\n"
            "Doubly Confluent   0   1   0   0   -1   1   1   -1  0   linear     linear     yes\n"
            "Jacobi             0   -1  0   1   0    -2  0   0   6   -          cubic      -\n"
            "# Jacobi: casting conflict: casting requires a3 = 0, got a3 = 1\n"
        )
        assert capsys.readouterr().out == expected


SPEC_FILES = {"heun.spec": HEUN_FILE, "exact.spec": EXACT_FILE, "qes.spec": QES_FILE}
GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"
GOLDEN_MATRIX = {
    "classify-heun": ["classify", "heun.spec"],
    "classify-exact": ["classify", "exact.spec"],
    "series-qes": ["series", "qes.spec", "--lambda", "0", "--terms", "12"],
    "series-exact": ["series", "exact.spec", "--terms", "10"],
    "series-heun": ["series", "heun.spec", "--terms", "5"],  # irrational roots: exit 5
    "kink-n2": ["kink", "--eps-sq", "1", "--state", "n2",
                "--xmin", "-2", "--xmax", "2", "--points", "5"],
    "kink-n3half": ["kink", "--eps-sq", "1/2", "--state", "n3half",
                    "--xmin", "-3", "--xmax", "3", "--points", "4"],
    "catalog": ["catalog"],
}


@pytest.mark.parametrize("fmt", ("table", "csv", "json"))
@pytest.mark.parametrize("case", GOLDEN_MATRIX)
def test_golden_matrix(case, fmt, tmp_path, monkeypatch, capsys):
    """Exit code, stdout and stderr of every subcommand in every format, byte for byte.

    Each golden file reads ``exit N``, ``--- stdout``, the stdout text,
    ``--- stderr`` and the stderr text.
    """
    monkeypatch.chdir(tmp_path)
    for name, text in SPEC_FILES.items():
        (tmp_path / name).write_text(text)
    code = main([*GOLDEN_MATRIX[case], "--format", fmt])
    out, err = capsys.readouterr()
    head, _, body = (GOLDEN_DIR / f"{case}-{fmt}.txt").read_text().partition("--- stdout\n")
    want_out, _, want_err = body.partition("--- stderr\n")
    assert head == f"exit {code}\n"
    assert out == want_out
    assert err == want_err


def test_spec_file_with_byte_order_mark(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "demos" / "specs" / "exact_branch.spec").read_text()
    spec = tmp_path / "exact_branch.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["classify", str(spec)]) == 0
    want = capsys.readouterr().out
    spec.write_text(text, encoding="utf-8-sig")
    assert spec.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["classify", str(spec)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_spec_file_that_is_not_utf8(tmp_path, capsys, fmt):
    spec = tmp_path / "latin1.spec"
    spec.write_bytes("a1 = 1\n# café\na8 = 2\n".encode("latin-1"))
    assert main(["classify", str(spec), "--format", fmt]) == 2
    err = capsys.readouterr().err
    if fmt == "json":
        err = json.loads(err)["error"]["message"]
    assert f"{spec}:2: not UTF-8 text: byte 0xe9" in err


def test_classify_determinism(heun_path, capsys):
    main(["classify", heun_path, "--format", "json"])
    first = capsys.readouterr().out
    main(["classify", heun_path, "--format", "json"])
    assert capsys.readouterr().out == first


class TestKinkExtremeInputs:
    def test_large_mu_exits_6_without_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "heunalg.cli", "kink", "--eps-sq", "1",
                              "--mu", "1000"], env=env, capture_output=True, text=True)
        assert run.returncode == 6
        assert "Traceback" not in run.stderr
        assert "nan" not in run.stdout
        rows = [line.split() for line in run.stdout.splitlines()[1:402]]
        assert {row[1] for row in rows if abs(float(row[0])) >= 1} == {"-1", "1"}

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_far_grid_prints_no_nan(self, fmt, capsys):
        assert main(["kink", "--eps-sq", "1", "--xmin", "900", "--xmax", "1000",
                     "--points", "3", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "kept no grid point" in err

    def test_mu_beyond_double_range_exit_2(self, capsys):
        assert main(["kink", "--eps-sq", "1", "--mu", "1" + "0" * 400, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["message"] == (
            "--mu must be a positive number within double range")

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_eps_sq_with_overflowing_a_exit_2(self, fmt, capsys):
        assert main(["kink", "--eps-sq", "1/1" + "0" * 310, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "(eps^2+1)/eps^2 overflows a double" in err

    def test_eps_sq_underflowing_a_double_exit_2(self, capsys):
        assert main(["kink", "--eps-sq", "1/1" + "0" * 400]) == 2
        assert "--eps-sq must be a positive number" in capsys.readouterr().err

    def test_grid_span_beyond_double_range_exit_2(self, capsys):
        assert main(["kink", "--eps-sq", "1", "--xmin=-1e308", "--xmax", "1e308"]) == 2
        assert "span --xmax - --xmin must be finite" in capsys.readouterr().err

    def test_huge_finite_bounds_print_exact_limits(self, capsys):
        main(["kink", "--eps-sq", "1", "--xmin=-1e300", "--xmax", "1e300", "--points", "5",
              "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["sigma"] for row in rows] == [-1.0, -1.0, 0.0, 1.0, 1.0]
        assert [row["psi"] for row in rows] == [0.0] * 5


@pytest.mark.parametrize("xmin, xmax, points", [
    (-10.0, 10.0, 401), (-3.0, 3.0, 121), (0.1, 12.0, 60), (-2.0, 2.0, 5), (1.0, -1.0, 2),
])
def test_kink_grid_equals_linspace(xmin, xmax, points, capsys):
    main(["kink", "--eps-sq", "1", "--state", "n2", "--xmin", str(xmin), "--xmax", str(xmax),
          "--points", str(points), "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["x"] for row in rows] == np.linspace(xmin, xmax, points).tolist()


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, heunalg, heunalg.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


DEMO_SPECS = Path(__file__).resolve().parents[1] / "demos" / "specs"
ALGEBRA_LAYER = {"errors", "operators", "polynomials", "algebra"}


@pytest.mark.parametrize("argv, code, modules", [
    ([], None, set()),
    (["classify", str(DEMO_SPECS / "heun.spec")], 0, ALGEBRA_LAYER | {"cli", "specfile"}),
    (["series", str(DEMO_SPECS / "qes_branch.spec")], 0,
     ALGEBRA_LAYER | {"cli", "specfile", "solvability"}),
    (["kink", "--eps-sq", "1/2"], 6,
     ALGEBRA_LAYER | {"cli", "specfile", "catalog", "kink", "verify"}),
    (["catalog"], 0, ALGEBRA_LAYER | {"cli", "catalog"}),
], ids=["import", "classify", "series", "kink", "catalog"])
def test_a_call_loads_only_the_modules_it_runs(argv, code, modules):
    """A fresh interpreter loads no heunalg submodule on `import heunalg`, and
    on a subcommand exactly the modules that subcommand runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import contextlib, io, sys, heunalg\n"
             "if sys.argv[1:]:\n"
             "    import heunalg.cli\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        print(heunalg.cli.main(sys.argv[1:]), file=sys.stderr)\n"
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('heunalg.'))))\n")
    run = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                         capture_output=True, text=True, check=True)
    if code is not None:
        assert run.stderr.splitlines()[-1] == str(code)
    assert set(run.stdout.split()) == {f"heunalg.{m}" for m in modules}



def _loaded(code, names, *argv):
    """The modules of names that a fresh interpreter running code has loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = code + f"\nprint(' '.join(m for m in {names!r} if m in sys.modules))\n"
    run = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


@pytest.mark.parametrize("argv", [
    ["classify", str(DEMO_SPECS / "heun.spec")],
    ["series", str(DEMO_SPECS / "qes_branch.spec")],
    ["kink", "--eps-sq", "1/2"],
    ["catalog"],
], ids=["classify", "series", "kink", "catalog"])
def test_a_call_loads_neither_dataclasses_nor_inspect(argv):
    """The records are NamedTuples and OdeSpec and HeunParams plain classes,
    so no subcommand pays for dataclasses and the inspect it imports, beyond
    what a bare interpreter on this host already loads."""
    names = ("dataclasses", "inspect")
    bare = _loaded("import sys", names)
    call = _loaded("import contextlib, io, sys\nimport heunalg.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    heunalg.cli.main(sys.argv[1:])", names, *argv)
    assert call - bare == set()


def test_literal_beyond_int_digit_limit_exit_2(tmp_path):
    spec = tmp_path / "long.spec"
    spec.write_text(f"a0 = {'1' * 5000}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "heunalg.cli", "classify", str(spec),
                          "--format", "json"], env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    error = json.loads(run.stderr)["error"]
    assert error["kind"] == "input"
    assert "set_int_max_str_digits" not in error["message"]


def test_classify_prints_exact_numbers_of_any_length(tmp_path, capsys):
    """The Casimir scalar a6*a7 has 6,000 digits, past int()'s default string limit."""
    p = tmp_path / "long.spec"
    p.write_text(f"a6 = 1{'0' * 2999}\na7 = 3{'0' * 2999}\n")
    limit = sys.get_int_max_str_digits()
    assert main(["classify", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["casimir"]["scalar"] == "3" + "0" * 5998
    assert payload["deformation"]["delta1"] == "-3" + "0" * 5998
    assert sys.get_int_max_str_digits() == limit  # main restores the interpreter's limit


@pytest.mark.parametrize("argv", [
    ["series", "qes.spec", "--lambda", "0", "--terms", "4001"],
    ["kink", "--eps-sq", "1", "--points", "100001"],
], ids=["terms", "points"])
def test_size_caps_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qes.spec").write_text(QES_FILE)
    assert main([*argv, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert "must be at most" in error["message"]
