"""The committed runs show every serving, resilience, chaos and
optimizer mechanism firing.

``tests/bench/test_baselines.py`` proves each file in ``baselines/``
equals a fresh run of its producer; this module asserts on those files
that the mechanisms the runs exist to exercise actually fire.  A change
that keeps every number plausible but silences a policy knob (no
deadline enforced, no shed, no retry, a breaker that never opens)
would pass a rerun-and-commit of the baselines; it fails here.
"""

import pytest

from repro.bench.baselines import load, path_of

#: the worst per-scenario predicted-vs-actual gap.  The committed gaps
#: come from estimation error only (hinted match rates vs sampled
#: ones, survival hints vs measured survival): join-sel's is ~1e-5 and
#: the other canonical workloads are estimated exactly.  The gate sits
#: far above that but far below any real estimator drift, which moves
#: phase costs by percents.
GAP_THRESHOLD = 0.05


def _results(name):
    """``kind -> results`` of one committed file."""
    return {run["kind"]: run["results"] for run in load(path_of(name))}


@pytest.fixture(scope="module")
def resilience():
    return _results("serving_resilience")


def test_latency_run_serves_rejects_and_hits_the_cache():
    """That ``makespan`` is the last terminal event needs the per-query
    finishes: ``tests/serve/test_service.py::TestMakespan`` asserts it
    on a live serve."""
    summary = _results("serving_latency")["serving[latency]"]
    assert summary["queries"] >= 100
    # the greedy tenant's burst exceeds its in-flight quota
    assert summary["rejected"] >= 1
    # the repeated mix is planned once per workload
    assert summary["cache"]["hit_rate"] > 0
    assert summary["p50_seconds"] <= summary["p99_seconds"]
    assert summary["p99_seconds"] <= summary["max_seconds"]
    assert summary["max_seconds"] <= summary["makespan"]


def test_overload_enforces_deadlines_and_sheds(resilience):
    outcomes = resilience["serving[overload]"]["outcomes"]
    assert outcomes["deadline_exceeded"] >= 1, outcomes
    assert outcomes["shed"] >= 1, outcomes


def test_chaos_transients_all_recover_through_retries(resilience):
    transients = resilience["serving[chaos-transients]"]
    assert transients["retries"] >= 1
    assert transients["outcomes"]["failed"] == 0, transients["outcomes"]


def test_chaos_breaker_fails_queries_and_opens(resilience):
    breaker = resilience["serving[chaos-breaker]"]
    assert breaker["outcomes"]["failed"] >= 1, breaker["outcomes"]
    opens = sum(entry["opens_total"] for entry in breaker["breaker"].values())
    assert opens >= 1, breaker["breaker"]


@pytest.mark.parametrize(
    "kind",
    ("serving[overload]", "serving[chaos-transients]", "serving[chaos-breaker]"),
)
def test_every_submitted_request_has_one_outcome(resilience, kind):
    summary = resilience[kind]
    assert summary["conservation"] is True
    assert sum(summary["outcomes"].values()) == summary["submitted"]


def test_every_optimizer_gap_is_under_the_gate():
    gaps = {
        kind: results["gap"] for kind, results in _results("optimizer_gap").items()
    }
    assert max(gaps.values()) <= GAP_THRESHOLD, gaps
    # join-sel is estimated inexactly: a zero gap would mean the
    # benchmark stopped measuring anything
    assert gaps["optgap[join-sel@ibm-ac922]"] > 0.0


def test_every_chaos_seed_recovers_the_fault_free_results():
    runs = _results("chaos_overhead")
    baseline = runs.pop("nopa[chaos-baseline]")
    assert runs, "no chaos-seed run committed"
    for kind, results in runs.items():
        assert kind.startswith("nopa[chaos-s")
        assert results == baseline, kind
