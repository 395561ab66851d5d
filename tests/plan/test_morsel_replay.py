"""The morsel replay against the dispatcher-driven replay it replaced.

``PlanExecutor._run_morsel`` grants morsels from a local integer cursor
and derives shares, dispatch metrics and the timeline from a grant log.
:func:`oracle_run_morsel` below is the earlier implementation, kept
verbatim: it drives the thread-safe :class:`MorselDispatcher` from the
simulator callbacks and records the timeline as it goes.  Both must
agree on every priced bit, every metric cell, every timeline span and
the ``sim.run`` span.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.costmodel.access import AccessProfile
from repro.costmodel.model import CostModel, PhaseCost
from repro.hardware.topology import ibm_ac922
from repro.obs import INERT, Observability
from repro.obs.inert import InertMetrics
from repro.obs.trace import Timeline
from repro.plan import Plan, PlanExecutor
from repro.plan.spec import MorselWorker, PhaseSpec, WorkerLoad, morsel_phase
from repro.sim.engine import Simulator
from repro.sim.resources import solve_concurrent_rates

import repro.plan.executor as executor_module


@dataclass
class OracleOutcome:
    cost: PhaseCost
    rates: Dict[str, float]
    shares: Dict[str, float]
    timeline: Optional[Timeline]
    units_done: Dict[str, float]


def oracle_run_morsel(self: PlanExecutor, phase: PhaseSpec) -> OracleOutcome:
    # The earlier ``PlanExecutor._run_morsel`` body, unchanged but for
    # the returned record.
    from repro.core.scheduler.batch import tune_batch_morsels
    from repro.core.scheduler.morsel import MorselDispatcher

    demands = self._solve(phase)
    rates = solve_concurrent_rates(demands)
    total_tuples = int(phase.shared_units or 0)
    dispatcher = MorselDispatcher(
        total_tuples, phase.morsel_tuples, metrics=self.obs.metrics
    )
    sim = Simulator(tracer=self.obs.tracer)
    timeline = Timeline()

    def make_worker(name: str, rate: float, batch: int, latency: float):
        def work(simulator: Simulator) -> None:
            grant = dispatcher.next_batch(batch, worker=name)
            if grant is None:
                return
            duration = latency + grant.tuples / rate
            timeline.record(
                name,
                phase.name,
                simulator.now,
                simulator.now + duration,
                grant.tuples,
            )
            simulator.schedule(duration, work)

        return work

    for key in phase.loads:
        rate = rates[key]
        if rate <= 0 or rate == float("inf"):
            raise RuntimeError(f"degenerate probe rate for {key}: {rate}")
        worker = phase.morsel_workers[key]
        batch = worker.batch_morsels or tune_batch_morsels(
            phase.morsel_tuples, rate, worker.dispatch_latency
        )
        sim.schedule(
            0.0, make_worker(key, rate, batch, worker.dispatch_latency)
        )
    seconds = sim.run()
    shares = {
        key: dispatcher.dispatched_tuples(key) / max(1, total_tuples)
        for key in phase.loads
    }
    units_done = {
        key: float(dispatcher.dispatched_tuples(key))
        for key in phase.loads
    }
    cost = self._aggregate_cost(demands, units_done, seconds, phase.name)
    self._record_load_metrics(phase, shares)
    return OracleOutcome(
        cost=cost,
        rates=dict(rates),
        shares=shares,
        timeline=timeline,
        units_done=units_done,
    )


MORSEL = 64
WORKERS = ("cpu0", "cpu1", "gpu0", "gpu1")
#: compute tuples per work unit: equal values on same-kind processors
#: give equal rates, so grants finish at exactly the same instant.
INTENSITY = {
    "equal": {"cpu0": 1.0, "cpu1": 1.0, "gpu0": 1.0, "gpu1": 1.0},
    "mixed": {"cpu0": 1.0, "cpu1": 3.0, "gpu0": 0.5, "gpu1": 7.0},
}
TOTALS = (0, MORSEL * 50, MORSEL * 50 + 17)
BATCHES = ("tuned", "fixed")
LATENCIES = (0.0, 2e-5)


def _phase(workers, intensity, total, batches, latency) -> PhaseSpec:
    loads = {
        name: WorkerLoad(
            profile=AccessProfile(
                compute_tuples=1e6 * intensity[name],
                processor=name,
                label=f"probe[{name}]",
            ),
            units=1e6,
        )
        for name in workers
    }
    config = {
        name: MorselWorker(
            dispatch_latency=latency,
            batch_morsels=None if batches == "tuned" else 1 + 2 * i,
        )
        for i, name in enumerate(workers)
    }
    return morsel_phase(
        "probe",
        loads,
        shared_units=float(total),
        morsel_tuples=MORSEL,
        morsel_workers=config,
    )


def _run(replay, phase, obs, monkeypatch):
    """``replay``'s outcome and the ``units_done`` it aggregated."""
    units: List[Dict[str, float]] = []
    aggregate = PlanExecutor._aggregate_cost

    def capture(demands, units_done, seconds, label):
        units.append(dict(units_done))
        return aggregate(demands, units_done, seconds, label)

    with monkeypatch.context() as patch:
        patch.setattr(PlanExecutor, "_aggregate_cost", staticmethod(capture))
        outcome = replay(PlanExecutor(CostModel(ibm_ac922(), obs=obs)), phase)
    return outcome, units


CASES = list(
    itertools.product(
        range(1, len(WORKERS) + 1), sorted(INTENSITY), TOTALS, BATCHES, LATENCIES
    )
)


@pytest.mark.parametrize("count,intensity,total,batches,latency", CASES)
def test_replay_matches_dispatcher_oracle(
    count, intensity, total, batches, latency, monkeypatch
):
    phase = _phase(WORKERS[:count], INTENSITY[intensity], total, batches, latency)
    want_obs, got_obs = Observability.create(), Observability.create()
    want, want_units = _run(oracle_run_morsel, phase, want_obs, monkeypatch)
    got, got_units = _run(PlanExecutor._run_morsel, phase, got_obs, monkeypatch)

    assert repr(got.cost.seconds) == repr(want.cost.seconds)
    assert repr(got.cost) == repr(want.cost)
    assert repr(got.cost.occupancy) == repr(want.cost.occupancy)
    assert repr(got.shares) == repr(want.shares)
    assert repr(got.rates) == repr(want.rates)
    assert repr(got_units) == repr(want_units)
    assert got.timeline.to_dicts() == want.timeline.to_dicts()
    assert repr(got.timeline.spans) == repr(want.timeline.spans)
    assert got_obs.metrics.snapshot() == want_obs.metrics.snapshot()
    assert repr(got_obs.metrics.snapshot()) == repr(want_obs.metrics.snapshot())
    # The sim.run span: same events fired, same clock advance.
    assert got_obs.timeline.to_dicts() == want_obs.timeline.to_dicts()
    (run_span,) = got_obs.timeline.by_label("sim.run")
    assert run_span.duration == got.cost.seconds


@pytest.mark.parametrize("count,intensity,total,batches,latency", CASES)
def test_bound_stays_under_the_replay(count, intensity, total, batches, latency):
    phase = _phase(WORKERS[:count], INTENSITY[intensity], total, batches, latency)
    executor = PlanExecutor(CostModel(ibm_ac922(), obs=INERT))
    assert executor.bound(Plan([phase])) <= executor._run_morsel(phase).seconds
    phase.shared_units += 0.9  # the replay drains whole tuples only
    assert executor.bound(Plan([phase])) <= executor._run_morsel(phase).seconds


def test_ties_alternate_like_the_dispatcher():
    """Equal rates and batches finish together; the tie goes to the
    worker scheduled first, exactly as the dispatcher saw it."""
    phase = _phase(("cpu0", "cpu1"), INTENSITY["equal"], MORSEL * 8, "tuned", 0.0)
    outcome = PlanExecutor(CostModel(ibm_ac922()))._run_morsel(phase)
    assert [g[0] for g in outcome.grants] == ["cpu0", "cpu1"] * 4


def test_inert_bundle_gets_no_dispatch_metric(monkeypatch):
    requested: List[str] = []
    get = InertMetrics._get

    def spy(self, kind, name, labels, factory):
        requested.append(name)
        return get(self, kind, name, labels, factory)

    monkeypatch.setattr(InertMetrics, "_get", spy)
    phase = _phase(WORKERS, INTENSITY["mixed"], MORSEL * 50 + 17, "fixed", 2e-5)
    outcome = PlanExecutor(CostModel(ibm_ac922(), obs=INERT))._run_morsel(phase)
    assert outcome.grants
    assert "morsels_dispatched_total" not in requested
    assert "dispatch_batch_tuples" not in requested
    assert len(INERT.metrics) == 0
    assert INERT.timeline.spans == []


def test_timeline_is_built_once_on_first_read(monkeypatch):
    phase = _phase(WORKERS[:2], INTENSITY["mixed"], MORSEL * 50, "tuned", 2e-5)
    outcome = PlanExecutor(CostModel(ibm_ac922()))._run_morsel(phase)
    built: List[Timeline] = []
    init = Timeline.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timeline, "__init__", counting_init)
    first = outcome.timeline
    assert outcome.timeline is first
    assert built == [first]
    assert len(first.spans) == len(outcome.grants)


def test_non_morsel_phase_has_no_timeline():
    from repro.plan import Plan, fixed_phase

    plan = Plan([fixed_phase("p", PhaseCost(1.0, "(none)", {}))])
    result = PlanExecutor(CostModel(ibm_ac922())).execute(plan)
    assert result["p"].timeline is None


class TestRejections:
    def test_negative_total_tuples(self):
        phase = _phase(WORKERS[:1], INTENSITY["equal"], 10, "tuned", 0.0)
        phase.shared_units = -5.0
        with pytest.raises(ValueError, match="non-negative: -5"):
            PlanExecutor(CostModel(ibm_ac922()))._run_morsel(phase)

    def test_non_positive_morsel_size(self):
        phase = _phase(WORKERS[:1], INTENSITY["equal"], 10, "tuned", 0.0)
        phase.morsel_tuples = 0
        with pytest.raises(ValueError, match="morsel size must be positive: 0"):
            PlanExecutor(CostModel(ibm_ac922()))._run_morsel(phase)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_finite_or_non_positive_rate_names_the_worker(
        self, rate, monkeypatch
    ):
        monkeypatch.setattr(
            executor_module,
            "solve_concurrent_rates",
            lambda demands: {key: rate for key in demands},
        )
        phase = _phase(WORKERS[:2], INTENSITY["equal"], 640, "tuned", 2e-5)
        with pytest.raises(RuntimeError, match="degenerate probe rate for cpu0"):
            PlanExecutor(CostModel(ibm_ac922()))._run_morsel(phase)
