"""Coefficient files: UTF-8 `key = value` lines defining an OdeSpec.

Keys are a0..a8 and the optional spin label j; values are integers or
rationals written p/q.  '#' starts a comment, blank lines are skipped,
unknown and duplicate keys are rejected, missing a-keys default to 0 and a
missing j defaults to 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .algebra import OdeSpec
from .errors import SpecFileError

_VALID_KEYS = tuple(f"a{i}" for i in range(9)) + ("j",)
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
MAX_LITERAL_DIGITS = 4300  # int()'s default limit, which the CLI lifts to print results


def parse_rational(text: str) -> Fraction:
    """Parse 'p', '-p' or 'p/q'; rejects anything else, including decimals."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise SpecFileError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > MAX_LITERAL_DIGITS:
        raise SpecFileError(f"rational literal too long ({len(text)} characters)")
    num_int, den_int = int(num), int(den or 1)
    if den_int == 0:
        raise SpecFileError(f"zero denominator in {text!r}")
    return Fraction(num_int, den_int)


def parse_spec_text(text: str, source: str = "<string>") -> OdeSpec:
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _VALID_KEYS:
            raise SpecFileError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise SpecFileError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = parse_rational(value)
    kwargs = {k: values.get(k, Fraction(0)) for k in _VALID_KEYS}
    return OdeSpec(**kwargs)


def read_spec_file(path: str | Path) -> OdeSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise SpecFileError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise SpecFileError(
            f"{p}:{lineno}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from exc
    return parse_spec_text(text, source=str(p))
