"""Self-tests of the benchmark: seeded inputs repeat, and wrong results,
timeouts and documented errors are classified as they should be."""

import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import heunalg  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import cli_expect  # noqa: E402
import workloads  # noqa: E402
from harness import WORKLOADS, CliResult, Task, run_task  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

def _described(items, workdir):
    out = []
    for item in items:
        params = {k: (os.path.relpath(v, workdir) if isinstance(v, str) and v.startswith(workdir)
                      else v) for k, v in item.params.items()}
        if "argv" in params:
            params["argv"] = [os.path.relpath(a, workdir) if a.startswith(workdir) else a
                              for a in params["argv"]]
        out.append((item.group, repr(sorted(params.items()))))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    dirs = [str(tmp_path / name) for name in ("a", "b", "c")]
    first = _described(workloads.generate(workload, 7, dirs[0]), dirs[0])
    again = _described(workloads.generate(workload, 7, dirs[1]), dirs[1])
    other = _described(workloads.generate(workload, 8, dirs[2]), dirs[2])
    assert first == again
    assert first != other
    assert len(first) >= 100
    if workload == "cli-session":
        names = sorted(os.listdir(os.path.join(dirs[0], "specs")))
        for name in names:
            with open(os.path.join(dirs[0], "specs", name)) as fa, \
                    open(os.path.join(dirs[1], "specs", name)) as fb:
                assert fa.read() == fb.read()


def _first_task(workload, group_prefix):
    items = [i for i in workloads.generate(workload, 3, "") if i.group.startswith(group_prefix)]
    return workloads.make_tasks(items[:1])[0]


def _corrupted(task, corrupt):
    return Task(task.group, lambda: corrupt(task.run()), task.check, task.describe)


def _bump(value):
    return value + Fraction(1, 7)


@pytest.mark.parametrize("workload, prefix, corrupt", [
    ("ladder-algebra", "heun", lambda r: (r[0].scale(Fraction(2)), *r[1:])),
    ("series-growth", "es-", lambda r: (r[0] + heunalg.GeneralizedSeries(r[0].base, {-1: 1}), r[1])),
    ("series-growth", "qes-N", lambda r: (r[0] + heunalg.GeneralizedSeries(r[0].base, {1: 1}), r[1])),
    ("spectral-degree", "qes-d", lambda r: heunalg.PolynomialSolutionResult(
        r.degree, tuple(tuple(_bump(c) for c in v) for v in r.basis), r.spectral_a8, r.verified)),
    ("spectral-degree", "kink-d", lambda r: heunalg.PolynomialSolutionResult(
        r.degree, r.basis, tuple(_bump(v) for v in r.spectral_a8) or (Fraction(1, 3),), r.verified)),
])
def test_corrupted_result_is_a_failure(workload, prefix, corrupt):
    task = _first_task(workload, prefix)
    assert run_task(task, 5.0, heunalg.HeunalgError).kind == "ok"
    assert run_task(_corrupted(task, corrupt), 5.0, heunalg.HeunalgError).kind == "wrong_result"


def test_corrupted_cli_output_is_a_failure(tmp_path):
    item = next(i for i in workloads.generate("cli-session", 3, str(tmp_path))
                if i.group == "cli-catalog" and i.params["fmt"] == "json")
    code, expected = cli_expect.expect(item.params)
    good = json.dumps(expected["json"])
    assert checks.cli_output(expected, "json", CliResult(code, good, "", 0)) is None
    bad = good.replace('"cubic"', '"quadratic"', 1)
    assert checks.cli_output(expected, "json", CliResult(code, bad, "", 0)) is not None


def test_timeout_and_documented_error_are_classified():
    def spin():
        while True:
            pass

    slow = Task("spin", spin, lambda r: None, "spin")
    start = time.perf_counter()
    assert run_task(slow, 0.05, heunalg.HeunalgError).kind == "timeout"
    assert time.perf_counter() - start < 2.0
    jacobi = _first_task("ladder-algebra", "jacobi")
    outcome = run_task(jacobi, 5.0, heunalg.HeunalgError)
    assert (outcome.kind, outcome.detail) == ("unsupported", "NotCastableError")


def test_tracer_self_time_and_uninstall():
    original = heunalg.operators.DiffOp.compose
    tracer = Tracer()
    tracer.install(heunalg)
    try:
        tracer.active = True
        heunalg.casimir_operator(heunalg.heun_spec(heunalg.catalog._HEUN_SAMPLE))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert heunalg.operators.DiffOp.compose is original
    stats = self_times(tracer.spans)
    assert stats["algebra.casimir_operator"][0] == 1
    assert stats["operators.compose"][0] > 0
    calls, self_s, total = stats["algebra.casimir_operator"]
    assert 0 <= self_s < total
    assert sum(s for _c, s, _t in stats.values()) == pytest.approx(
        stats["algebra.casimir_operator"][2], rel=1e-9)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END_NAMES
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER_NAMES
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
