"""Running one task under the per-task time cap, and classifying its outcome.

The cap is a SIGALRM interval timer armed by the benchmark process itself: no
thread or process is started per task.  In-process tasks are interrupted by
:class:`~spans.TaskTimeout`; a CLI task's child is killed and reaped.

Outcomes:
    ok           the result passed its exact check
    unsupported  a documented HeunalgError, or CLI exit code 3, 4 or 5
    wrong_result the result failed its exact check
    exception    an undocumented exception, or a traceback from the CLI
    exit_code    the CLI exit code was not the documented one
    timeout      the task reached the cap
The last four are failures.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spans import TaskTimeout

WORKLOADS = ("ladder-algebra", "series-growth", "spectral-degree", "cli-session")
FAILURE_KINDS = ("wrong_result", "exception", "exit_code", "timeout")
UNSUPPORTED_EXIT_CODES = (3, 4, 5)


@dataclass
class Task:
    """One call into heunalg.  ``run`` is timed; ``check`` is not, and returns
    None when the result is right or a one-line reason when it is wrong."""

    group: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    describe: str
    expect_code: int | None = None  # CLI tasks: the documented exit code


@dataclass
class Outcome:
    kind: str
    seconds: float
    detail: str | None = None
    result: object = None


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop that does not touch heunalg.

    Timed after every task.  On a shared host the speed of the whole machine
    drifts by tens of percent within seconds to minutes; dividing task times by this
    kernel's time, measured in the same moments, cancels that drift."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k * k + 1, 3 * k + 7)
    return time.perf_counter() - start


def _on_alarm(signum, frame):
    raise TaskTimeout()


def run_task(task: Task, cap: float, documented: type[BaseException], tracer=None) -> Outcome:
    """Run one task under the cap; check its result after the clock stops."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = None
    kind = "ok"
    detail = None
    try:
        if tracer is not None:
            tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = time.perf_counter()
        try:
            result = task.run()
        except TaskTimeout:
            kind = "timeout"
        except documented as exc:
            kind, detail = "unsupported", type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - any other exception is a finding
            kind, detail = "exception", f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        if tracer is not None:
            tracer.active = False
        signal.signal(signal.SIGALRM, previous)
    if kind == "ok":
        kind, detail = classify_result(task, result)
    return Outcome(kind, seconds, detail, result)


def classify_result(task: Task, result) -> tuple[str, str | None]:
    if isinstance(result, CliResult):
        if "Traceback (most recent call last)" in result.stderr:
            return "exception", result.stderr.strip().splitlines()[-1]
        if result.code != task.expect_code:
            return "exit_code", f"exit {result.code}, expected {task.expect_code}"
    reason = task.check(result)
    if reason is not None:
        return "wrong_result", reason
    if isinstance(result, CliResult) and result.code in UNSUPPORTED_EXIT_CODES:
        return "unsupported", f"exit {result.code}"
    return "ok", None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    max_rss_kb: int


def child_env(src: str) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_seconds(code: str, root: str) -> float:
    """Wall seconds of ``python -c code`` started from ``root`` with its
    ``src`` first on PYTHONPATH; ``"pass"`` times a bare interpreter start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(os.path.join(root, "src")),
                   cwd=root, check=True, timeout=60)
    return time.perf_counter() - start


def run_child(argv: list[str], env: dict, cwd: str, outdir: str) -> CliResult:
    """Run one child process to completion and return its exit code, output
    and peak resident memory.  Output goes to files so that waiting on the
    child is a single ``wait4`` that the task timer can interrupt."""
    out_path = os.path.join(outdir, "child.out")
    err_path = os.path.join(outdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=cwd)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except TaskTimeout:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CliResult(proc.returncode, stdout, stderr, usage.ru_maxrss)
