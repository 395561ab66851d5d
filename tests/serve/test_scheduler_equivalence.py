"""The one-live-completion scheduler decides what its predecessor did.

``PARENT_DIGEST`` was recorded by running this file's ``_digest`` at the
commit *before* the scheduler kept a single live completion event and
memoised its solver input (PR 17, 3ab2c7b): it covers every query's
timestamps and outcome, every terminal bucket, ``resolves``,
``peak_concurrency`` and the call sequence of every hook, over 300
generated scenarios.  ``makespan`` is deliberately outside the digest —
it is the one result that changed — and is checked against the latest
terminal timestamp instead.
"""

import copy
import hashlib

import pytest

import repro.serve.scheduler as scheduler_module
from repro.costmodel.model import PhaseCost
from repro.serve.scheduler import ContentionScheduler
from repro.sim.engine import Simulator

from tests.serve.scenarios import build, fingerprint, last_terminal, make_query

SCENARIOS = 300
PARENT_DIGEST = (
    "b81e6a342429a9688cb9850ced434cdb82d835c6f4a8af545f56693cf9985d0a"
)


def _digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        scenario = build(seed)
        outcome = scenario.run()
        for line in fingerprint(scenario, outcome):
            digest.update(line.encode())
            digest.update(b"\n")
    return digest.hexdigest()


class TestEquivalenceWithParent:
    def test_generated_scenarios_match_the_recorded_parent_digest(self):
        assert _digest(range(SCENARIOS)) == PARENT_DIGEST

    def test_generator_covers_every_outcome_and_hook(self):
        # The digest only means something if the scenario space is hit.
        seen = set()
        for seed in range(SCENARIOS):
            scenario = build(seed)
            outcome = scenario.run()
            assert outcome.accounted() == len(scenario.queries)
            for bucket in ("finished", "dropped", "deadline_exceeded", "failed"):
                if getattr(outcome, bucket):
                    seen.add(bucket)
            seen.update(shed.reason for shed in outcome.shed)
            if outcome.retries:
                seen.add("retries")
            seen.update(scenario.hooks)
        assert seen >= {
            "finished", "dropped", "deadline_exceeded", "failed",
            "queue_full", "stretch", "retries", "fault", "capacity",
        }

    def test_makespan_is_the_latest_terminal_timestamp(self):
        for seed in range(SCENARIOS):
            scenario = build(seed)
            outcome = scenario.run()
            assert outcome.makespan == last_terminal(scenario, outcome), seed


class TestMemoPurity:
    """The two per-run tables change how often the solver runs, never
    what it answers."""

    def test_private_phase_copies_yield_identical_results(self):
        # With a private copy of every phase no identity ever repeats,
        # so neither table can hit: the run solves from scratch.
        for seed in range(120):
            shared = build(seed)
            private = build(seed)
            for query in private.queries:
                query.phases = [copy.copy(phase) for phase in query.phases]
            shared_outcome = shared.run()
            private_outcome = private.run()
            assert fingerprint(shared, shared_outcome) == fingerprint(
                private, private_outcome
            ), seed
            assert shared_outcome.makespan == private_outcome.makespan

    def test_shared_plans_solve_fewer_times_than_they_resolve(self, monkeypatch):
        solves = []
        real = scheduler_module.solve_concurrent_rates

        def counting(demands, **kwargs):
            solves.append(len(demands))
            return real(demands, **kwargs)

        monkeypatch.setattr(
            scheduler_module, "solve_concurrent_rates", counting
        )
        plans = [
            [PhaseCost(0.4, "a", {"a": 0.4, "b": 0.1}, "scan")],
            [
                PhaseCost(0.2, "b", {"b": 0.2}, "build"),
                PhaseCost(0.5, "a", {"a": 0.3, "b": 0.5}, "probe"),
            ],
            [PhaseCost(0.3, "c", {"c": 0.3, "a": 0.2}, "agg")],
        ]
        queries = [
            make_query(i, 0.35 * i, plans[(i * 7) % 3]) for i in range(200)
        ]
        outcome = ContentionScheduler().run(queries)
        assert len(outcome.finished) == 200
        # The epoch scheme solved once per resolve of a non-empty set.
        assert 0 < 2 * len(solves) < outcome.resolves


class _CountingSimulator(Simulator):
    """Tracks which kind of callback every live event carries."""

    def __init__(self):
        super().__init__()
        self.kinds = {}
        self.fired = 0

    def schedule(self, delay, callback):
        kind = callback.__name__
        box = []

        def fire(simulator):
            del self.kinds[box[0]]
            callback(simulator)

        event = super().schedule(delay, fire)
        box.append(event.seq)
        self.kinds[event.seq] = kind
        return event

    def cancel_event(self, event):
        cancelled = super().cancel_event(event)
        if cancelled:
            del self.kinds[event.seq]
        return cancelled

    def step(self):
        live = list(self.kinds.values())
        others = sum(
            live.count(kind) for kind in ("arrival", "deadline", "retry")
        )
        assert self.pending == len(live)
        assert self.pending <= others + 1, live
        fired = super().step()
        self.fired += fired
        return fired


@pytest.fixture
def simulators(monkeypatch):
    """The simulators the scheduler creates, each a counting one."""
    created = []

    def factory():
        created.append(_CountingSimulator())
        return created[-1]

    monkeypatch.setattr(scheduler_module, "Simulator", factory)
    return created


class TestOneLiveCompletion:
    def test_at_most_one_completion_is_ever_pending(self, simulators):
        for seed in range(120):
            scenario = build(seed)
            outcome = scenario.run()
            simulator = simulators.pop()
            assert not simulators
            assert simulator.pending == 0
            deadlines = sum(
                q.request.deadline is not None for q in scenario.queries
            )
            assert simulator.fired <= (
                len(scenario.queries)
                + deadlines
                + outcome.retries
                + outcome.resolves
            ), seed

    def test_events_grow_with_requests_not_with_concurrency(self, simulators):
        # 30 queries all active at once: the epoch scheme pushed one
        # completion per active query per resolve (O(n^2) events).
        phase = PhaseCost(1.0, "a", {"a": 1.0}, "work")
        queries = [make_query(i, 0.0, [phase]) for i in range(30)]
        outcome = ContentionScheduler().run(queries)
        (simulator,) = simulators
        assert outcome.peak_concurrency == 30
        assert simulator.fired == 60  # one arrival + one completion each
        assert outcome.makespan == pytest.approx(30.0)


class _CappedSimulator(_CountingSimulator):
    """A counting simulator that fails a run firing more than ``CAP``
    events, so a scheduler that spins fails fast instead of hanging."""

    CAP = 100

    def step(self):
        assert self.fired < self.CAP, (
            f"scheduler spun: {self.fired} events fired, clock stuck at "
            f"t={self.now!r}"
        )
        return super().step()


class TestLateClockTermination:
    @pytest.mark.parametrize("arrival", [1e6, 1e9])
    def test_lone_query_lands_where_the_clock_ulp_swallows_its_eta(
        self, monkeypatch, arrival
    ):
        # Past ~8,192 s, ulp(now)/2 exceeds the completion tolerance:
        # the event fires with work left, and a re-solved eta rounds
        # back to ``now``.  The completion must land, not re-fire.
        created = []

        def factory():
            created.append(_CappedSimulator())
            return created[-1]

        monkeypatch.setattr(scheduler_module, "Simulator", factory)
        phase = PhaseCost(0.3001, "mem:cpu0-mem", {"mem:cpu0-mem": 0.3001})
        outcome = ContentionScheduler().run([make_query(0, arrival, [phase])])
        (query,) = outcome.finished
        assert created[0].fired == 2  # the arrival and one completion
        assert query.finish == pytest.approx(arrival + 0.3001, rel=1e-15)
        assert outcome.makespan == query.finish
