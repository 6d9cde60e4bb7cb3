"""Command-line behavior: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heunalg.cli import main

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
        assert main(["kink", "--eps-sq", "0", "--state", "n2"]) == 2

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
        # sinh(mu x / 2)^2 overflows here, so the closed-form psi evaluates to NaN
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
            "Heun               1   -3  2   0   3/2  -3  1   2   -1  cubic      cubic      yes  \n"
            "Confluent Heun     0   1   -1  0   2    0   -1  2   0   quadratic  quadratic  yes  \n"
            "Bi-Confluent Heun  0   0   1   0   -2   0   2   0   0   quadratic  quadratic  yes  \n"
            "Doubly Confluent   0   1   0   0   -1   1   1   -1  0   linear     linear     yes  \n"
            "Jacobi             0   -1  0   1   0    -2  0   0   6   -          cubic      -    \n"
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


def test_classify_determinism(heun_path, capsys):
    main(["classify", heun_path, "--format", "json"])
    first = capsys.readouterr().out
    main(["classify", heun_path, "--format", "json"])
    assert capsys.readouterr().out == first


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
