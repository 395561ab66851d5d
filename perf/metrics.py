"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``test_perf_smoke.py`` fails if
the two ever disagree.

**Two clocks.** A metric marked ``exact`` is a virtual-time, accuracy or
count result of the modelled machine: it repeats bit for bit for a seed, so
a change meant only to speed the simulator up must leave it identical.  All
other metrics are host measurements of the machine that runs the benchmark.
Virtual seconds carry the unit ``virt_s`` so the two can never be confused;
host seconds of a layer are per pass (one iteration of the workload).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from perf.workloads import FIGURE_RUNNERS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: repeats exactly for a seed (virtual time, accuracy, counts).
    exact: bool = False
    #: allowed worsening as a share of the parent's median (end-to-end only).
    bound: float = 0.0


#: What a user of the repo's host speed sees.  ``throughput_per_s`` counts
#: the workload's own work item: requests (serve_*), plans (plan_cold),
#: tuples (join_exec), figures (figures).
END_TO_END: List[Metric] = [
    Metric("throughput_per_s", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.10),
    Metric("setup_s", "s", "lower", bound=0.25),
]

_HOST_S = ("s/pass", "lower")
_COUNT_DOWN = ("count", "lower", True)

PER_LAYER: List[Metric] = [
    # serve: front door, cache, scheduler, admission
    Metric("serve.serve_s", *_HOST_S),
    Metric("serve.front_self_s", *_HOST_S),
    Metric("serve.front_self_us_per_req", "us/req", "lower"),
    Metric("serve.submit_us_per_req", "us/req", "lower"),
    Metric("serve.cache_hits", "count", "higher", True),
    Metric("serve.cache_misses", *_COUNT_DOWN),
    Metric("serve.scheduler_run_s", *_HOST_S),
    Metric("serve.scheduler_self_s", *_HOST_S),
    Metric("serve.admission_s", *_HOST_S),
    Metric("serve.admission_calls", *_COUNT_DOWN),
    Metric("serve.peak_concurrency", *_COUNT_DOWN),
    Metric("serve.finished", "count", "higher", True),
    Metric("serve.shed", *_COUNT_DOWN),
    Metric("serve.deadline_exceeded", *_COUNT_DOWN),
    Metric("serve.failed", *_COUNT_DOWN),
    Metric("serve.rejected", *_COUNT_DOWN),
    Metric("serve.retries", *_COUNT_DOWN),
    # sim: rate solver and event engine
    Metric("sim.solve_s", *_HOST_S),
    Metric("sim.solve_calls", *_COUNT_DOWN),
    Metric("sim.solve_us_per_call", "us/call", "lower"),
    Metric("sim.solve_mean_workers", "count", "lower", True),
    Metric("sim.events_fired", *_COUNT_DOWN),
    Metric("sim.events_cancelled", *_COUNT_DOWN),
    Metric("sim.host_us_per_event", "us/event", "lower"),
    # faults
    Metric("faults.check_query_s", *_HOST_S),
    Metric("faults.check_query_calls", *_COUNT_DOWN),
    # logical: optimizer and lowering
    Metric("logical.optimize_s", *_HOST_S),
    Metric("logical.optimize_calls", *_COUNT_DOWN),
    Metric("logical.candidates_priced", *_COUNT_DOWN),
    Metric("logical.viable_frac", "ratio", "higher", True),
    Metric("logical.compile_query_s", *_HOST_S),
    Metric("logical.compile_query_calls", *_COUNT_DOWN),
    # plan, costmodel, obs, workloads, hardware
    Metric("plan.execute_s", *_HOST_S),
    Metric("plan.execute_self_s", *_HOST_S),
    Metric("plan.execute_calls", *_COUNT_DOWN),
    Metric("costmodel.phase_cost_s", *_HOST_S),
    Metric("costmodel.phase_cost_calls", *_COUNT_DOWN),
    Metric("costmodel.phase_cost_us_per_call", "us/call", "lower"),
    Metric("obs.build_manifest_s", *_HOST_S),
    Metric("obs.build_manifest_calls", *_COUNT_DOWN),
    Metric("workloads.build_query_s", *_HOST_S),
    Metric("hardware.machine_build_s", *_HOST_S),
    # functional layer
    Metric("workloads.gen_s", *_HOST_S),
    Metric("core.join.nopa_run_s.perfect", *_HOST_S),
    Metric("core.join.nopa_run_s.open_addressing", *_HOST_S),
    Metric("exec.build_s", *_HOST_S),
    Metric("exec.probe_s", *_HOST_S),
    Metric("core.hashtable.insert_s", *_HOST_S),
    Metric("core.hashtable.lookup_s", *_HOST_S),
    Metric("core.join.pricing_frac", "ratio", "lower"),
    # figure runners (fastest repeat in the untraced half of the traced run)
    *[Metric(f"bench.fig_s.{module}", *_HOST_S) for module, _f, _s in FIGURE_RUNNERS],
    # the tracer itself
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.unattributed_frac", "ratio", "lower"),
    # results of the modelled machine (virtual clock) and accuracy
    Metric("virt_p50_latency_s", "virt_s", "lower", True),
    Metric("virt_p99_latency_s", "virt_s", "lower", True),
    Metric("virt_goodput_frac", "ratio", "higher", True),
    Metric("paper_dev_mean", "ratio", "lower", True),
    Metric("paper_anchors", "count", "higher", True),
    Metric("plan_gap_max", "ratio", "lower", True),
]

def as_output(names: List[Metric], values: Dict[str, float]) -> Dict[str, Dict]:
    """The ``metrics`` object of the result line; a layer that did not run
    on this workload reads 0."""
    return {
        m.name: {"value": values.get(m.name, 0), "unit": m.unit} for m in names
    }
