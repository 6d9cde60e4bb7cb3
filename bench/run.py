"""The heunalg benchmark: one seeded workload, timed end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ladder-algebra, series-growth, spectral-degree, cli-session.  One
caller runs in a closed loop: each task starts when the previous one has
ended, with no threads and at most one child process at a time.

A run repeats the workload's fixed task list ("a round") while the next round
still fits in S seconds, and always runs at least one: a cli-session round
takes about 35 s on a 2-vCPU x86-64 host, so its run does too.  Each task is timed
alone under a per-task cap, and its result is checked exactly after the clock
stops.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it spends half of S on untraced rounds and half on traced
rounds, and reports per-layer self times and counters, the tracing overhead
and the hang probes.  Spans of the traced rounds are written to
``.bench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from harness import FAILURE_KINDS, WORKLOADS, CliResult, child_seconds, reference_kernel, run_task
from spans import Tracer, root_time, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

TASK_CAP_S = 5.0  # every seed task finishes in under 1.5 s on a 2-core machine
SETUP_REPEATS = 9
# The reference start: a fresh interpreter that imports numpy, heunalg's one
# runtime dependency.  Loading numpy is most of a set-up and of a CLI task, so
# the host's speed at this start tracks theirs.  setup_s is set-up time in
# reference starts, given in seconds at this nominal reference start time
# (about that of a 2-vCPU x86-64 host).
REFERENCE_START = "import numpy"
NOMINAL_START_S = 0.2
FLOOR_REPEATS = 5
CLI_SUBCOMMANDS = ("classify", "series", "kink", "catalog")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heunalg", "__init__.py")):
        print(f"error: no heunalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]

    if args.setup_probe:
        return _setup_probe(args)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = _trace_run(args, workdir) if args.trace else _timed_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


# -- set-up --------------------------------------------------------------------


def _setup_probe(args) -> int:
    """Import heunalg and generate the inputs in this fresh process; print seconds."""
    start = time.perf_counter()
    import workloads

    workloads.generate(args.workload, args.seed, args.setup_probe)
    print(time.perf_counter() - start)
    return 0


def _reference_start() -> float:
    return child_seconds(REFERENCE_START, ROOT)


def _setup_seconds(args, workdir: str) -> tuple[float, float]:
    """(setup_s, median raw seconds) over SETUP_REPEATS set-ups, each in a fresh process.

    Each set-up's time is divided by the mean of two reference starts timed
    just before and just after it, and the median ratio is scaled by
    NOMINAL_START_S.  The ratio cancels the host's speed, which drifts by tens
    of percent over minutes, while work moved into import or input generation
    still shows in full."""
    ratios, raw = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{k}")
        os.makedirs(probe_dir)
        before = _reference_start()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe", probe_dir],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        after = _reference_start()
        seconds = float(out.stdout.strip().splitlines()[-1])
        ratios.append(seconds / ((before + after) / 2))
        raw.append(seconds)
        shutil.rmtree(probe_dir)
    return statistics.median(ratios) * NOMINAL_START_S, statistics.median(raw)


def _load(args, workdir: str):
    import heunalg
    import workloads

    if os.path.dirname(os.path.abspath(heunalg.__file__)) != os.path.join(SRC, "heunalg"):
        raise RuntimeError(f"heunalg imported from {heunalg.__file__}, not from {SRC}")
    items = workloads.generate(args.workload, args.seed, workdir)
    cli = workloads.CliContext(ROOT, workdir) if args.workload == "cli-session" else None
    return heunalg, workloads, workloads.make_tasks(items, cli), cli


# -- rounds --------------------------------------------------------------------


@dataclass
class Reference:
    """What each task's latency is divided by: ``measure`` is timed after
    every ``every``-th task, and a task is divided by the mean of the samples
    taken within ``window`` tasks of it."""

    measure: Callable[[], float]
    every: int
    window: int
    describe: str


def _reference(cli) -> Reference:
    """In-process workloads time a fixed Fraction loop after every task;
    cli-session times the reference start, since its tasks are process
    starts, and only after every fourth task, since it costs most of a task."""
    if cli is not None:
        return Reference(_reference_start, 4, 8, "reference start, after every 4th task")
    return Reference(reference_kernel, 1, 4, "Fraction reference loop, after every task")


class Rounds:
    """Outcomes of the rounds of one phase.

    Besides its time in seconds, each task's latency is also expressed in
    reference units (see ``Reference``).  On a shared host the machine's
    speed drifts by tens of percent within seconds; the window is local in
    time, so the reference sees the same drift as the task.
    """

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # seconds, per round, in task order
        self.in_ref: list[list[float]] = []  # the same latencies in reference units
        self.refs: list[float] = []  # every reference sample, in seconds
        self.outcomes: list[tuple[str, object]] = []  # (task group, Outcome)
        self.max_child_rss_kb = 0

    def run(self, tasks, budget: float, documented, reference: Reference, tracer=None,
            absorb=None) -> "Rounds":
        start = time.perf_counter()
        last = 0.0
        while not self.latencies or (time.perf_counter() - start) + last <= budget:
            began = time.perf_counter()
            latencies, refs = [], []  # refs: (task index, seconds)
            for i, task in enumerate(tasks):
                outcome = run_task(task, TASK_CAP_S, documented, tracer)
                latencies.append(outcome.seconds)
                if i % reference.every == reference.every - 1 or i == len(tasks) - 1:
                    refs.append((i, reference.measure()))
                self.outcomes.append((task.group, outcome))
                if isinstance(outcome.result, CliResult):
                    self.max_child_rss_kb = max(self.max_child_rss_kb, outcome.result.max_rss_kb)
                outcome.result = None
                if absorb is not None:
                    absorb()
            self.latencies.append(latencies)
            self.refs.extend(r for _i, r in refs)
            self.in_ref.append([
                t / statistics.fmean(r for j, r in refs if abs(j - i) <= reference.window)
                for i, t in enumerate(latencies)
            ])
            last = time.perf_counter() - began
        return self

    @property
    def walls(self) -> list[float]:
        return [sum(r) for r in self.latencies]

    def wall(self, in_ref: bool = False) -> float:
        """Median over rounds of the round's summed task latencies."""
        return statistics.median(sum(r) for r in (self.in_ref if in_ref else self.latencies))

    def percentile(self, q: float, in_ref: bool = False) -> float:
        """Nearest-rank percentile over the tasks of each task's median latency
        across rounds."""
        rounds = self.in_ref if in_ref else self.latencies
        ordered = sorted(statistics.median(per_task) for per_task in zip(*rounds))
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _group, o in self.outcomes:
            out[o.kind] = out.get(o.kind, 0) + 1
        return out

    def failures(self) -> list[str]:
        return [f"{g}: {o.kind}: {o.detail}" for g, o in self.outcomes if o.kind in FAILURE_KINDS]


def _summary(*phases: Rounds) -> tuple[int, int]:
    """(attempted, failed) over the given phases."""
    kinds = [p.kinds() for p in phases]
    return (sum(len(p.outcomes) for p in phases),
            sum(k.get(kind, 0) for k in kinds for kind in FAILURE_KINDS))


def _report_failures(*phases: Rounds) -> None:
    attempted, failed = _summary(*phases)
    counts = {kind: sum(p.kinds().get(kind, 0) for p in phases) for kind in FAILURE_KINDS}
    breakdown = ", ".join(f"{k} {v}" for k, v in counts.items())
    print(f"  fail_ratio        {failed / attempted:.6f} ({failed}/{attempted}; {breakdown})")
    for line in [line for p in phases for line in p.failures()][:10]:
        print(f"    {line}")


# -- end-to-end run ----------------------------------------------------------------


def _timed_run(args, workdir: str) -> dict:
    setup_s, setup_raw_s = _setup_seconds(args, workdir)
    heunalg, _, tasks, cli = _load(args, workdir)
    reference = _reference(cli)
    rounds = Rounds().run(tasks, args.seconds, heunalg.HeunalgError, reference)
    attempted, failed = _summary(rounds)
    unsupported = rounds.kinds().get("unsupported", 0)
    if args.workload == "cli-session":
        rss_kb = rounds.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (rounds.wall(in_ref=True), "ref"),
        "task_p50_ref": (rounds.percentile(0.50, in_ref=True), "ref"),
        "task_p90_ref": (rounds.percentile(0.90, in_ref=True), "ref"),
        "unsupported_ratio": (unsupported / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    if list(metrics) != END_TO_END_NAMES:
        raise RuntimeError("end-to-end metrics out of step with END_TO_END_NAMES")
    n = len(rounds.walls)
    per_round = f"median over {n} rounds"
    rows = [
        ("setup_raw_s", setup_raw_s, "s", f"median of {SETUP_REPEATS} set-ups, each in a fresh process"),
        ("setup_s", setup_s, "s", f"the same, in reference starts of {NOMINAL_START_S:g} s"),
        ("wall_s", rounds.wall(), "s", f"{per_round} of the whole task list"),
        ("task_p50_ms", rounds.percentile(0.50) * 1e3, "ms", f"over {len(tasks)} task medians of {n} rounds"),
        ("task_p90_ms", rounds.percentile(0.90) * 1e3, "ms", f"over {len(tasks)} task medians of {n} rounds"),
        ("reference_ms", statistics.median(rounds.refs) * 1e3, "ms", reference.describe),
        ("wall_ref", *metrics["wall_ref"], "wall_s in reference units"),
        ("task_p50_ref", *metrics["task_p50_ref"], "task_p50 in reference units"),
        ("task_p90_ref", *metrics["task_p90_ref"], "task_p90 in reference units"),
        ("unsupported_ratio", *metrics["unsupported_ratio"], f"{unsupported}/{attempted}"),
        ("peak_rss_mb", *metrics["peak_rss_mb"],
         "largest child process" if args.workload == "cli-session" else "this process"),
    ]
    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks per round, "
          f"{n} rounds, {attempted} task samples, cap {TASK_CAP_S:g} s per task")
    for name, value, unit, note in rows:
        print(f"  {name:<17} {value:.6g} {unit} ({note})")
    _report_failures(rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- traced run -------------------------------------------------------------------


def _child_wall_ms(code: str, repeats: int) -> float:
    return statistics.median(child_seconds(code, ROOT) for _ in range(repeats)) * 1e3


def _trace_run(args, workdir: str) -> dict:
    heunalg, workloads, tasks, cli = _load(args, workdir)
    reference = _reference(cli)
    plain = Rounds().run(tasks, args.seconds / 2, heunalg.HeunalgError, reference)

    tracer = Tracer()
    absorb = None
    if cli is not None:
        cli.traced = True

        def absorb():
            if os.path.exists(cli.span_path):
                with open(cli.span_path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
                os.remove(cli.span_path)
    else:
        tracer.install(heunalg)
    try:
        traced = Rounds().run(tasks, args.seconds / 2, heunalg.HeunalgError, reference, tracer,
                              absorb)
    finally:
        tracer.uninstall()
    # The hang probes run once, after the rounds, with their own tracer so that
    # their capped spans stay out of the per-round layer times.
    probes = Rounds()
    probe_tracer = Tracer()
    if args.workload == "spectral-degree":
        probe_tracer.install(heunalg)
        try:
            probes.run(workloads.hang_probes(), 0.0, heunalg.HeunalgError, reference, probe_tracer)
        finally:
            probe_tracer.uninstall()

    n = len(traced.walls)
    layer = self_times(tracer.spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_SPANS:
        calls, self_s, _total = layer.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for name in PER_LAYER_SELF_ONLY:
        metrics[f"{name}.self_s"] = (layer.get(name, (0, 0.0, 0.0))[1] / n, "s")
    for name in PER_ROUND_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / n, "count")
    for name in MAXIMA:
        metrics[name] = (tracer.maxima.get(name, 0), "bits")
    timeouts = "solvability.polynomial.timeouts"
    metrics[timeouts] = (tracer.counts.get(timeouts, 0) + probe_tracer.counts.get(timeouts, 0),
                         "count")
    for sub in CLI_SUBCOMMANDS:
        samples = [o.seconds for g, o in plain.outcomes if g == f"cli-{sub}"]
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    metrics["cli.floor_ms"] = (_child_wall_ms("pass", FLOOR_REPEATS), "ms")
    metrics["cli.import_ms"] = (_child_wall_ms("import heunalg", FLOOR_REPEATS), "ms")
    traced_wall = sum(traced.walls)
    # the difference of reference-unit walls, in seconds at the run's median reference time
    overhead = (traced.wall(in_ref=True) - plain.wall(in_ref=True)) * statistics.median(plain.refs + traced.refs)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.covered_ratio"] = (root_time(tracer.spans) / traced_wall, "ratio")

    if list(metrics) != PER_LAYER_NAMES:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER_NAMES")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": n,
                   "fields": ["name", "start", "end", "parent"], **tracer.export()}, fh)

    attempted, failed = _summary(plain, traced)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain.walls)} untraced and "
          f"{n} traced rounds of {len(tasks)} tasks; per-layer values are per traced round")
    if probes.outcomes:
        kinds = probes.kinds()
        print(f"  hang probes: {kinds.get('timeout', 0)}/{len(probes.outcomes)} reached the "
              f"{TASK_CAP_S:g} s cap ({', '.join(t.describe for t in workloads.hang_probes())})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    _report_failures(plain, traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


PER_LAYER_SPANS = (
    "operators.compose", "operators.apply", "solvability.series", "solvability.polynomial",
    "polynomials.rational_roots", "polynomials.interpolate",
)
PER_LAYER_SELF_ONLY = (
    "algebra.deformation", "algebra.casimir", "algebra.poly_of_op", "algebra.cast_check",
    "kink.algebra", "verify.residual",
)
PER_ROUND_COUNTS = (
    "solvability.series.terms", "solvability.series.dropped", "solvability.series.resonant",
    "verify.residual.points", "verify.residual.excluded",
)
MAXIMA = ("solvability.coeff_bits_max", "polynomials.rational_roots.const_bits_max")
END_TO_END_NAMES = ["setup_s", "wall_ref", "task_p50_ref", "task_p90_ref", "unsupported_ratio",
                    "peak_rss_mb"]
PER_LAYER_NAMES = [
    *(f"{n}.{k}" for n in PER_LAYER_SPANS for k in ("calls", "self_s")),
    *(f"{n}.self_s" for n in PER_LAYER_SELF_ONLY),
    *PER_ROUND_COUNTS, *MAXIMA, "solvability.polynomial.timeouts",
    *(f"cli.{sub}.p50_ms" for sub in CLI_SUBCOMMANDS),
    "cli.floor_ms", "cli.import_ms", "trace.overhead_s", "trace.covered_ratio",
]


if __name__ == "__main__":
    sys.exit(main())
