"""The predicted-vs-actual gap rows, and the committed
``baselines/optimizer_gap.json`` is a full run of the scenario list.
``tests/bench/test_liveness.py`` gates the committed gaps."""

from repro.bench.baselines import load, path_of
from repro.bench.optimizer_gap import SCENARIOS, run_scenario


def test_join_sel_gap_is_live_but_small():
    """join-sel is the scenario whose estimate is genuinely inexact
    (hinted 50% match rate vs the sampled one): the gap must be
    non-zero — proving the benchmark measures something — yet orders
    of magnitude below one percent."""
    row = run_scenario("join-sel", "ibm-ac922")["results"]
    assert row["predicted_seconds"] > 0.0
    assert row["actual_seconds"] > 0.0
    assert 0.0 < row["gap"] < 1e-3


def test_exactly_estimated_scenario_has_zero_gap():
    """Workload A's uniform all-match join is estimated exactly, so
    predicted and actual prices coincide bit-for-bit."""
    row = run_scenario("join-a", "ibm-ac922")["results"]
    assert row["gap"] == 0.0
    assert row["predicted_seconds"] == row["actual_seconds"]


def test_gap_document_layout():
    """A gap row is a run: its numbers sit in ``results``."""
    row = run_scenario("join-a", "ibm-ac922")
    assert set(row) == {"kind", "workload", "machine", "results"}
    assert row["kind"] == "optgap[join-a@ibm-ac922]"
    assert set(row["results"]) == {
        "chosen",
        "considered",
        "rejected",
        "predicted_seconds",
        "actual_seconds",
        "gap",
    }


def test_committed_baseline_is_consistent():
    """The committed gap rows are a full run of the current scenario
    list."""
    runs = load(path_of("optimizer_gap"))
    assert [run["kind"] for run in runs] == [
        f"optgap[{name}@{machine}]" for name, machine in SCENARIOS
    ]
