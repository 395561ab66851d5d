"""Timing loop, estimator and per-layer summary for one workload process.

**Estimator.** Each unit is repeated after one untimed warm-up, with
``gc.collect()`` before each repeat; a workload's time is the sum over its
units of the *fastest* repeat of that unit.  Co-tenant interference on a
small shared host comes in bursts of a tenth of a second to seconds that
lengthen repeats by up to 2x and shorten none, and the time budget allows 3
to 25 repeats of a unit, not hundreds: over ten launches the minimum moved
2-12 %, the first quartile 4-11 % and the median 8-34 %.  Quartiles are
reported beside it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from perf import trace
from perf.workloads import Workload


def quartiles(values: List[float]) -> List[float]:
    """[q25, median, q75]; a single sample is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def workload_seconds(samples: Dict[str, List[float]]) -> float:
    """The estimator: sum over units of the unit's fastest repeat."""
    return sum(min(repeats) for repeats in samples.values())


def timed_passes(
    workload: Workload,
    seconds: float,
    tracer: Optional[trace.Tracer] = None,
) -> Dict[str, List[float]]:
    """Run whole passes over the units until ``seconds`` have gone by (at
    least one pass); returns unit name -> repeat durations."""
    units = workload.units()
    samples: Dict[str, List[float]] = {name: [] for name, _run in units}
    deadline = time.perf_counter() + seconds
    while True:
        for name, run in units:
            gc.collect()
            if tracer is None:
                start = time.perf_counter()
                result = run()
                elapsed = time.perf_counter() - start
            else:
                with tracer.span(f"unit.{name}") as root:
                    result = run()
                elapsed = root.duration
            samples[name].append(elapsed)
            workload.check(name, result)
        if tracer is not None:
            tracer.pass_id += 1
        if time.perf_counter() >= deadline:
            return samples


def run_workload(
    workload: Workload,
    seconds: float,
    traced: bool,
    started_at: float,
) -> Dict[str, Any]:
    """Set up, warm up and measure ``workload`` in this process.

    Untraced: ``seconds`` of timed passes.  Traced: half of ``seconds``
    untraced, then half with every layer wrapped, so the two halves give the
    tracing overhead under the same conditions.
    """
    workload.setup()
    workload.warmup()
    setup_s = time.time() - started_at

    result: Dict[str, Any] = {"workload": workload.name, "seed": workload.seed}
    if not traced:
        samples = timed_passes(workload, seconds)
    else:
        samples = timed_passes(workload, seconds / 2)
        tracer = trace.Tracer()
        trace.install(tracer, workload.tracer_importers())
        try:
            traced_samples = timed_passes(workload, seconds / 2, tracer)
        finally:
            tracer.restore()
        result["per_layer"] = summarize(tracer, workload, samples, traced_samples)
        result["trace"] = tracer.to_dict()
    result.update(
        samples=samples,
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        items_per_pass=workload.items_per_pass(),
        item=workload.item,
        attempted=workload.attempted,
        failed=workload.failed,
        failures=workload.failures,
        digest=workload.digest,
        counts=workload.counts,
        virtual=workload.virtual,
    )
    return result


def summarize(
    tracer: trace.Tracer,
    workload: Workload,
    untraced: Dict[str, List[float]],
    traced: Dict[str, List[float]],
) -> Dict[str, float]:
    """Per-layer metrics of one traced run, per pass (one iteration of the
    workload); a layer that did not run reads 0."""
    passes = tracer.pass_id
    # On the three serving workloads a work item is one request.
    requests = workload.items_per_pass() * passes

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: Dict[str, float] = dict(workload.counts)
    out.update(workload.virtual)

    serve_s = tracer.seconds("serve.serve")
    front_self = tracer.self_seconds("serve.serve")
    submit_calls, submit_s, _w = tracer.leaf("serve.submit")
    admission_calls, admission_s, _w = tracer.leaf("serve.admission")
    solve_calls, solve_s, solve_workers = tracer.leaf("sim.solve")
    check_calls, check_s, _w = tracer.leaf("faults.check_query")
    cost_calls, cost_s, _w = tracer.leaf("costmodel.phase_cost")
    _c, machine_s, _w = tracer.leaf("hardware.machine_build")
    _c, insert_s, _w = tracer.leaf("core.hashtable.insert")
    _c, lookup_s, _w = tracer.leaf("core.hashtable.lookup")
    _c, gen_s, _w = tracer.leaf("workloads.gen")
    scheduler_s = tracer.seconds("serve.scheduler_run")
    events = tracer.counts.get("sim.events_fired", 0)
    # Events fire inside the scheduler and inside the executor's morsel
    # replays; host time per event is over whichever ran them.
    event_host_s = scheduler_s + tracer.seconds("plan.execute")
    nopa_s = sum(
        span.duration
        for span in tracer.spans
        if span.name.startswith("core.join.nopa_run.")
    )

    out.update(
        {
            "serve.serve_s": per_pass(serve_s),
            "serve.front_self_s": per_pass(front_self),
            "serve.front_self_us_per_req": 1e6 * ratio(front_self, requests),
            "serve.submit_us_per_req": 1e6 * ratio(submit_s, submit_calls),
            "serve.scheduler_run_s": per_pass(scheduler_s),
            "serve.scheduler_self_s": per_pass(
                tracer.self_seconds("serve.scheduler_run")
            ),
            "serve.admission_s": per_pass(admission_s),
            "serve.admission_calls": per_pass(admission_calls),
            "sim.solve_s": per_pass(solve_s),
            "sim.solve_calls": per_pass(solve_calls),
            "sim.solve_us_per_call": 1e6 * ratio(solve_s, solve_calls),
            "sim.solve_mean_workers": ratio(solve_workers, solve_calls),
            "sim.events_fired": per_pass(events),
            "sim.events_cancelled": per_pass(
                tracer.counts.get("sim.events_cancelled", 0)
            ),
            "sim.host_us_per_event": 1e6 * ratio(event_host_s, events),
            "faults.check_query_s": per_pass(check_s),
            "faults.check_query_calls": per_pass(check_calls),
            "logical.optimize_s": per_pass(tracer.seconds("logical.optimize")),
            "logical.optimize_calls": per_pass(tracer.calls("logical.optimize")),
            "logical.candidates_priced": per_pass(
                tracer.counts.get("logical.candidates", 0)
            ),
            "logical.viable_frac": ratio(
                tracer.counts.get("logical.viable", 0),
                tracer.counts.get("logical.candidates", 0),
            ),
            "logical.compile_query_s": per_pass(
                tracer.seconds("logical.compile_query")
            ),
            "logical.compile_query_calls": per_pass(
                tracer.calls("logical.compile_query")
            ),
            "plan.execute_s": per_pass(tracer.seconds("plan.execute")),
            "plan.execute_self_s": per_pass(tracer.self_seconds("plan.execute")),
            "plan.execute_calls": per_pass(tracer.calls("plan.execute")),
            "costmodel.phase_cost_s": per_pass(cost_s),
            "costmodel.phase_cost_calls": per_pass(cost_calls),
            "costmodel.phase_cost_us_per_call": 1e6 * ratio(cost_s, cost_calls),
            "obs.build_manifest_s": per_pass(tracer.seconds("obs.build_manifest")),
            "obs.build_manifest_calls": per_pass(
                tracer.calls("obs.build_manifest")
            ),
            "workloads.build_query_s": per_pass(
                tracer.seconds("workloads.build_query")
            ),
            "hardware.machine_build_s": per_pass(machine_s),
            # join_exec generates its inputs in set-up; the figure runners
            # generate theirs inside the timed units.
            "workloads.gen_s": workload.gen_seconds + per_pass(gen_s),
            "exec.build_s": per_pass(tracer.seconds("exec.build")),
            "exec.probe_s": per_pass(tracer.seconds("exec.probe")),
            "core.hashtable.insert_s": per_pass(insert_s),
            "core.hashtable.lookup_s": per_pass(lookup_s),
            "core.join.pricing_frac": ratio(
                tracer.seconds_under(
                    ("plan.compile", "plan.execute"), "core.join.nopa_run."
                ),
                nopa_s,
            ),
        }
    )
    for scheme in ("perfect", "open_addressing"):
        out[f"core.join.nopa_run_s.{scheme}"] = per_pass(
            tracer.seconds(f"core.join.nopa_run.{scheme}")
        )
    if workload.unit_metric_prefix is not None:
        for name, repeats in untraced.items():
            out[workload.unit_metric_prefix + name] = min(repeats)

    roots = tracer.roots()
    root_s = sum(span.duration for span in roots)
    out["trace.unattributed_frac"] = ratio(
        sum(span.self_seconds for span in roots), root_s
    )
    out["trace.overhead_frac"] = (
        workload_seconds(traced) / workload_seconds(untraced) - 1.0
    )
    return out
