"""Smoke tests of the benchmark itself: ``python -m pytest perf -q``.

Not part of the tier-1 suite.  Every workload runs once at a tiny size; the
tests assert that the output checks fire when an output is wrong, that the
tracer's arithmetic and clean-up hold, and that the result line carries
exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf import harness, layers, metrics, trace
from perf.workloads import (
    WHY,
    WORKLOADS,
    Figures,
    JoinExec,
    PlanCold,
    ServeOverload,
    ServeSteady,
)

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "serve_steady": lambda: ServeSteady(11, requests=60),
    "serve_overload": lambda: ServeOverload(11, requests=150),
    "plan_cold": lambda: PlanCold(11),
    "join_exec": lambda: JoinExec(11, scale=2.0**-14),
    "figures": lambda: Figures(11, scale=2.0**-16),
}


def ready(name: str):
    workload = TINY[name]()
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_own_checks(name):
    workload = ready(name)
    workload.warmup()
    samples = harness.timed_passes(workload, seconds=0.0)
    assert workload.attempted > 0
    assert workload.failed == 0, workload.failures
    assert all(len(repeats) == 1 for repeats in samples.values())
    assert workload.items_per_pass() > 0


def test_corrupted_join_reference_fails():
    workload = ready("join_exec")
    workload.reference_aggregate += 1
    workload.warmup()
    assert workload.failed == len(workload.schemes)


def test_broken_conservation_fails():
    workload = ready("serve_steady")
    service, report = workload.one_pass()
    report.served.pop()  # one request now lands in no terminal bucket
    workload.check("pass", (service, report))
    assert workload.failed == len(workload.requests)
    assert "conservation" in workload.failures[0]


def test_changed_outcome_between_passes_fails():
    workload = ready("serve_steady")
    workload.check("pass", workload.one_pass())
    assert workload.failed == 0
    workload.requests[0] = ("alpha", "join-a", 0.5)
    workload.check("pass", workload.one_pass())
    assert workload.failed == len(workload.requests)


def test_nan_figure_cell_fails():
    workload = ready("figures")
    result = workload.run_figure("fig12_transfer_methods")
    series = next(iter(result.rows[0].values))
    result.rows[0].values[series] = math.nan
    workload.check("fig12_transfer_methods", result)
    assert workload.failed == 1


def test_raising_figure_runner_fails():
    workload = ready("figures")

    def broken():
        raise RuntimeError("boom")

    workload.runners["fig01_bandwidth"] = (broken, False)
    workload.check("fig01_bandwidth", workload.run_figure("fig01_bandwidth"))
    assert workload.failed == 1
    assert "boom" in workload.failures[0]


@pytest.mark.parametrize("name", ["serve_overload", "join_exec", "figures"])
def test_span_self_times_sum_to_the_root(name):
    workload = ready(name)
    tracer = trace.Tracer()
    trace.install(tracer, workload.tracer_importers())
    try:
        harness.timed_passes(workload, 0.0, tracer)
    finally:
        tracer.restore()
    assert not tracer.missing
    owned = {}
    for index, span in enumerate(tracer.spans):
        root = index
        while tracer.spans[root].parent >= 0:
            root = tracer.spans[root].parent
        leaves = sum(agg[1] for agg in span.leaves.values())
        owned[root] = owned.get(root, 0.0) + span.self_seconds + leaves
    assert len(owned) == len(workload.units())
    for root, seconds in owned.items():
        assert seconds == pytest.approx(tracer.spans[root].duration, rel=0.02)
    # and the layers the workload is there for were seen
    summary = harness.summarize(tracer, workload, {"u": [1.0]}, {"u": [1.0]})
    expected = {
        "serve_overload": "serve.scheduler_run_s",
        "join_exec": "core.hashtable.lookup_s",
        "figures": "plan.execute_s",
    }[name]
    assert summary[expected] > 0
    assert 0 <= summary["trace.unattributed_frac"] < 1


def test_wrappers_are_restored_after_tracing():
    from repro.logical import explain
    from repro.plan import PlanExecutor
    from repro.serve import scheduler, service
    from repro.sim.engine import Simulator

    before = (
        vars(PlanExecutor)["execute"],
        vars(Simulator)["step"],
        vars(service.QueryService)["serve"],
        service.optimize,
        scheduler.solve_concurrent_rates,
        dict(explain.WORKLOADS),
        dict(explain.MACHINES),
    )

    def now():
        return (
            vars(PlanExecutor)["execute"],
            vars(Simulator)["step"],
            vars(service.QueryService)["serve"],
            service.optimize,
            scheduler.solve_concurrent_rates,
            dict(explain.WORKLOADS),
            dict(explain.MACHINES),
        )

    tracer = trace.Tracer()
    trace.install(tracer)
    assert all(a is not b for a, b in zip(before[:5], now()[:5]))
    assert now()[5] != before[5] and now()[6] != before[6]
    tracer.restore()
    assert all(a is b for a, b in zip(before[:5], now()[:5]))
    assert now()[5:] == before[5:]


def test_inherited_method_patch_leaves_the_base_alone():
    class Base:
        def hello(self):
            return "base"

    class Child(Base):
        pass

    module = sys.modules[__name__]
    module.Child = Child
    try:
        tracer = trace.Tracer()
        tracer.patch_attr(
            f"{__name__}.Child", "hello", lambda fn: tracer.wrap_span("hello", fn)
        )
        assert "hello" in vars(Child) and Child().hello() == "base"
        tracer.restore()
        assert "hello" not in vars(Child) and Child().hello() == "base"
        assert tracer.calls("hello") == 1
    finally:
        del module.Child


def test_missing_targets_do_not_fail_the_run(monkeypatch):
    tracer = trace.Tracer()
    tracer.patch_attr("repro.no_such_module.Thing", "run", lambda fn: fn)
    tracer.patch_attr("repro.plan.PlanExecutor", "no_such_method", lambda fn: fn)
    assert len(tracer.missing) == 2

    def gone():
        raise ImportError("No module named 'repro.exec.process'")

    monkeypatch.setitem(layers.RATIOS, "exec.processes.join_speedup", gone)
    cell = layers.measure(["exec.processes.join_speedup"])[
        "exec.processes.join_speedup"
    ]
    assert cell["value"] is None and "ImportError" in cell["reason"]


def test_benchmark_json_matches_the_metric_tables():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(document) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert document["paths"] == ["perf"]
    assert document["workloads"] == [
        {"name": name, "why": WHY[name]} for name in WORKLOADS
    ]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(why) <= 200 and "\n" not in why for why in WHY.values())
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)


@pytest.mark.parametrize("traced, table", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_result_line_names_match_benchmark_json(traced, table):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perf" / "run.py"),
            "--workload", "plan_cold", "--seed", "5",
            "--seconds", "0.3", "--trace", str(traced),
        ],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in table]
    for metric in table:
        cell = result["metrics"][metric.name]
        assert cell["unit"] == metric.unit
        assert isinstance(cell["value"], (int, float)) and math.isfinite(cell["value"])
