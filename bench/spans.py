"""In-memory span tracing of heunalg's layers, installed from outside the package.

Each wrapped public function records one span (name, start, end, parent index)
while the tracer is active.  Wrappers are installed in every namespace where
the function is looked up: its defining module, every other heunalg module
that imported the name, and the package namespace.  Two methods are wrapped on
their class, ``DiffOp.compose`` and ``DiffOp.apply``.

Counters are recorded at the same boundaries: terms, truncations and
resonances of series solutions, the largest coefficient bit-length in solver
results, the constant-term bit-length handed to ``rational_roots``, timeouts of
``polynomial_solution`` and the grid size of the residual check.

A layer's self time is the duration of its spans minus the duration of their
direct child spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import Any, Callable

LAYERS = ("operators", "polynomials", "algebra", "solvability", "kink", "verify", "cli")

# Scalar helpers called inside the innermost loops.  A span costs about a
# microsecond, as much as these functions themselves, so they are left
# unwrapped and their time counts as self time of the calling span.
UNWRAPPED = frozenset({
    "as_fraction", "falling_factorial",
    "poly", "poly_eval", "poly_add", "poly_scale", "poly_mul", "is_rational_square",
    "sigma_of_x", "kink_wavefunction",
})

# Span names that differ from "<layer>.<function name>".
ALIASES = {
    "deformation_coefficients": "deformation",
    "series_solution_with_report": "series",
    "polynomial_solution": "polynomial",
    "poly_interpolate": "interpolate",
    "residual_sigma": "residual",
    "kink_algebra": "algebra",
    "cmd_classify": "classify",
    "cmd_series": "series",
    "cmd_kink": "kink",
    "cmd_catalog": "catalog",
}


class TaskTimeout(BaseException):
    """Raised by the per-task timer.  Derives from BaseException so that no
    ``except Exception`` inside the program can swallow it."""


def fraction_bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def constant_term_bits(p) -> int:
    """Bit-length of the constant term rational_roots divides: the lowest
    nonzero coefficient after clearing denominators."""
    coeffs = [Fraction(c) for c in p]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    return next((abs(v).bit_length() for v in ints if v != 0), 0)


class Tracer:
    """Spans and counters of one process.  Records only while ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None, on_error=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values(),
                      *(importlib.import_module(f"{package.__name__}.{m}") for m in ("catalog", "specfile"))]
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or attr in UNWRAPPED or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__):
                    continue
                if layer == "cli" and not attr.startswith("cmd_") and attr != "main":
                    continue
                name = f"{layer}.{ALIASES.get(attr, attr)}"
                wrappers[id(fn)] = self.wrap(name, fn, *_HOOKS.get(name, ()))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)
        diffop = modules["operators"].DiffOp
        for method in ("compose", "apply"):
            original = diffop.__dict__[method]
            self._undo.append((diffop, method, original))
            setattr(diffop, method, self.wrap(f"operators.{method}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def merge(self, exported: dict) -> None:
        """Add the spans and counters another process exported."""
        offset = len(self.spans)
        self.spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                          for name, start, end, parent in exported["spans"])
        for key, value in exported["counts"].items():
            self.add(key, value)
        for key, value in exported["maxima"].items():
            self.note_max(key, value)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "maxima": self.maxima}


def self_times(spans: list[list]) -> dict[str, list]:
    """name -> [calls, self seconds, total seconds]."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[index]
        entry[2] += end - start
    return out


def root_time(spans: list[list]) -> float:
    return sum(end - start for _name, start, end, parent in spans if parent < 0)


# -- boundary counters -------------------------------------------------------


def _series_done(tracer: Tracer, result) -> None:
    series, report = result
    coeffs = [c for _m, c in series.items()]
    tracer.add("solvability.series.terms", len(coeffs))
    tracer.add("solvability.series.dropped", report.dropped)
    tracer.note_max("solvability.coeff_bits_max", max(map(fraction_bits, coeffs), default=0))


def _series_failed(tracer: Tracer, exc: BaseException) -> None:
    if type(exc).__name__ == "ResonantExponentError":
        tracer.add("solvability.series.resonant", 1)


def _polynomial_done(tracer: Tracer, result) -> None:
    values = [c for vec in result.basis for c in vec] + list(result.spectral_a8)
    tracer.note_max("solvability.coeff_bits_max", max(map(fraction_bits, values), default=0))


def _polynomial_failed(tracer: Tracer, exc: BaseException) -> None:
    if isinstance(exc, TaskTimeout):
        tracer.add("solvability.polynomial.timeouts", 1)


def _roots_called(tracer: Tracer, args, kwargs) -> None:
    p = args[0] if args else kwargs["p"]
    tracer.note_max("polynomials.rational_roots.const_bits_max", constant_term_bits(p))


def _residual_called(tracer: Tracer, args, kwargs) -> None:
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    tracer.add("verify.residual.points", len(grid))


def _residual_done(tracer: Tracer, result) -> None:
    tracer.add("verify.residual.excluded", result.excluded_points)


_HOOKS = {
    "solvability.series": (None, _series_done, _series_failed),
    "solvability.polynomial": (None, _polynomial_done, _polynomial_failed),
    "polynomials.rational_roots": (_roots_called,),
    "verify.residual": (_residual_called, _residual_done),
}
