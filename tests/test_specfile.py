"""Coefficient-file parsing."""

import sys
from fractions import Fraction as F

import pytest

from heunalg import SpecFileError, parse_rational, parse_spec_text


def test_defaults_and_comments():
    spec = parse_spec_text("# only one key\na4 = 3/2\n\n")
    assert spec.a4 == F(3, 2)
    assert spec.a0 == spec.a8 == 0
    assert spec.j == 0  # default spin label


def test_inline_comment_and_negative():
    spec = parse_spec_text("a1 = -7/3  # inline note\nj = 1/2\n")
    assert spec.a1 == F(-7, 3) and spec.j == F(1, 2)


def test_unknown_key():
    with pytest.raises(SpecFileError):
        parse_spec_text("a9 = 1\n")


def test_duplicate_key():
    with pytest.raises(SpecFileError):
        parse_spec_text("a1 = 1\na1 = 2\n")


def test_missing_equals():
    with pytest.raises(SpecFileError):
        parse_spec_text("a1 1\n")


@pytest.mark.parametrize("bad", ["1.5", "1/0", "x", "", "1/2/3", "0x1"])
def test_bad_rational_literals(bad):
    with pytest.raises(SpecFileError):
        parse_rational(bad)


@pytest.mark.parametrize("text,value", [("4", F(4)), ("-4", F(-4)),
                                        ("3/2", F(3, 2)), ("-9/6", F(-3, 2)),
                                        ("+2", F(2))])
def test_good_rational_literals(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("literal", ["1" * 5000, "-1/" + "7" * 5000],
                         ids=["numerator", "denominator"])
def test_literal_beyond_int_digit_limit(literal):
    with pytest.raises(SpecFileError, match="too long") as info:
        parse_rational(literal)
    assert "set_int_max_str_digits" not in str(info.value)
    with pytest.raises(SpecFileError):
        parse_spec_text(f"a0 = {literal}\n")


def test_literal_bound_is_independent_of_int_digit_limit():
    """parse_rational keeps its own 4,300-digit bound when int() has none."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(SpecFileError, match="too long"):
            parse_rational("1" * 4301)
        with pytest.raises(SpecFileError, match="too long"):
            parse_rational("1/" + "7" * 4301)
        assert parse_rational("-" + "9" * 4300) == -(10 ** 4300 - 1)
    finally:
        sys.set_int_max_str_digits(limit)
