"""The scheduler's float clock against an exact-arithmetic twin.

The twin is the fair-weather event loop of ``ContentionScheduler`` (no
hooks, no policy, no deadlines) over ``fractions.Fraction``: one live
completion, the soonest eta first in ``active`` order on ties, arrivals
before a completion due at the same time, rates re-solved on every
change to the active set.  Its solver is a ``Fraction`` twin of
``solve_concurrent_rates`` with the same ``1 + 1e-9`` acceptance.  In
exact arithmetic each scaling round sets the worst resource's load to
exactly 1 and later rounds only lower it, so no resource is scaled
twice and the twin needs no oscillation guard.

Each generated scenario (``tests/serve/scenarios.py``, hooks, policy
and deadlines stripped) runs with every arrival shifted by each of
``OFFSETS``.  Arrivals are first rounded to a 2**-20 s grid, on which
``arrival + offset`` is exact for every offset: all offsets then serve
the same exact workload, and the twin at offset ``t`` is the offset-0
twin plus ``t``.  (Unrounded, the shifted arrivals themselves round,
and the exact finishes move by up to ~300 ULPs at t = 1e9 before the
clock adds any error.)  The checks:

* the twin lands every phase with exactly zero work left;
* every float finish is within ``ULP_BOUND`` ULPs of the twin's;
* the run at offset ``t`` is the offset-0 run shifted by ``t``, within
  the same bound;
* completion events fired equal phases landed: a completion that fires
  always finishes its phase, at any virtual time.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest

import repro.serve.scheduler as scheduler_module
from repro.costmodel.model import PhaseCost
from repro.serve.request import ServedQuery
from repro.serve.scheduler import ContentionScheduler
from repro.sim.engine import Simulator
from repro.sim.resources import solve_concurrent_rates

from tests.serve.scenarios import build, make_query

OFFSETS = (0.0, 1e3, 1e5, 1e6, 1e9)
SEEDS = range(100)
#: largest distance, in ULPs of the float finish, between a float
#: finish and the exact one, and between the offset-``t`` run and the
#: offset-0 run shifted by ``t``.  Measured maxima over ``SEEDS``:
#: 54.9, 63.0, 82.2, 45.0 and 195.3 ULPs at the five offsets.
ULP_BOUND = 256

#: the float solver's acceptance threshold, as the exact value it has.
_FEASIBLE = Fraction(1.0 + 1e-9)


def exact_rates(vectors: List[Dict[str, Fraction]]) -> List[Optional[Fraction]]:
    """``solve_concurrent_rates`` over Fractions, in worker order; None
    is an infinite rate (no demand)."""
    rates: List[Optional[Fraction]] = []
    for vector in vectors:
        worst = max(vector.values(), default=Fraction(0))
        rates.append(1 / worst if worst > 0 else None)
    users: Dict[str, List[Tuple[int, Fraction]]] = {}
    for worker, vector in enumerate(vectors):
        if rates[worker] is not None:
            for resource, occupancy in vector.items():
                users.setdefault(resource, []).append((worker, occupancy))
    for _ in range(len(users) + 1):
        worst_resource, worst_load = None, _FEASIBLE
        for resource, pairs in users.items():
            load = sum(occupancy * rates[worker] for worker, occupancy in pairs)
            if load > worst_load:
                worst_resource, worst_load = resource, load
        if worst_resource is None:
            return rates
        for worker, occupancy in users[worst_resource]:
            if occupancy > 0:
                rates[worker] /= worst_load
    raise AssertionError("a resource was scaled twice in exact arithmetic")


class _Record:
    def __init__(self, query: ServedQuery) -> None:
        self.query = query
        self.phase_index = 0
        self.remaining = Fraction(0)
        self.rate = Fraction(1)


def exact_run(queries: List[ServedQuery]) -> Tuple[Dict[int, Fraction], int]:
    """The twin's finish time per request id, and the phases it landed."""
    vectors: Dict[int, Dict[str, Fraction]] = {}
    solved: Dict[Tuple[int, ...], List[Optional[Fraction]]] = {}

    def per_unit(phase: PhaseCost) -> Dict[str, Fraction]:
        if id(phase) not in vectors:
            vectors[id(phase)] = {
                resource: Fraction(busy) / Fraction(phase.seconds)
                for resource, busy in phase.occupancy.items()
            }
        return vectors[id(phase)]

    pending = sorted(queries, key=lambda q: (q.request.arrival, q.request.request_id))
    active: Dict[int, _Record] = {}
    finish: Dict[int, Fraction] = {}
    landed = 0
    now = Fraction(0)

    def enter_phase(record: _Record) -> None:
        phases = record.query.phases
        while record.phase_index < len(phases):
            if phases[record.phase_index].seconds > 0:
                record.remaining = Fraction(phases[record.phase_index].seconds)
                return
            record.phase_index += 1
        del active[record.query.request.request_id]
        finish[record.query.request.request_id] = now

    def resolve() -> None:
        phases = [r.query.phases[r.phase_index] for r in active.values()]
        key = tuple(map(id, phases))
        if key not in solved:
            solved[key] = exact_rates([per_unit(phase) for phase in phases])
        for record, rate in zip(active.values(), solved[key]):
            record.rate = Fraction(1) if rate is None else min(Fraction(1), rate)

    while pending or active:
        # Every record's progress is banked at every event, so the
        # soonest eta is ``now`` plus the smallest ``remaining / rate``.
        soonest: Optional[_Record] = None
        wait = Fraction(0)
        for record in active.values():
            candidate = record.remaining / record.rate
            if soonest is None or candidate < wait:
                soonest, wait = record, candidate
        arrival = Fraction(pending[0].request.arrival) if pending else None
        if arrival is not None and (soonest is None or arrival <= now + wait):
            elapsed, now = arrival - now, arrival
        else:
            elapsed, now = wait, now + wait
        for record in active.values():
            record.remaining -= elapsed * record.rate
            assert record.remaining >= 0
        if soonest is None or now == arrival:
            record = _Record(pending.pop(0))
            active[record.query.request.request_id] = record
            enter_phase(record)
            if record.query.request.request_id in active:
                resolve()
        else:
            assert soonest.remaining == 0
            landed += 1
            soonest.phase_index += 1
            enter_phase(soonest)
            resolve()
    return finish, landed


def fair_weather(seed: int, offset: float) -> List[ServedQuery]:
    """The queries of scenario ``seed``, deadlines dropped, every arrival
    rounded to the 2**-20 s grid and shifted by ``offset``."""
    return [
        make_query(
            query.request.request_id,
            math.ldexp(round(math.ldexp(query.request.arrival, 20)), -20) + offset,
            query.phases,
            query.request.tenant,
        )
        for query in build(seed).queries
    ]


def ulps(value: float, reference: Fraction) -> Fraction:
    """``|value - reference|`` in ULPs of ``value``."""
    return abs(Fraction(value) - reference) / Fraction(math.ulp(value))


class _CountingSimulator(Simulator):
    """Counts the completion events that fire."""

    def __init__(self) -> None:
        super().__init__()
        self.completions = 0

    def schedule(self, delay, callback):
        if callback.__name__ != "completion":
            return super().schedule(delay, callback)

        def counted(simulator):
            self.completions += 1
            callback(simulator)

        return super().schedule(delay, counted)


@dataclass
class _Scenario:
    queries: List[ServedQuery]
    exact: Dict[int, Fraction]
    landed: int
    #: per offset: float finish per request id, completion events fired
    #: and resolves.
    finishes: Dict[float, Dict[int, float]] = field(default_factory=dict)
    completions: Dict[float, int] = field(default_factory=dict)
    resolves: Dict[float, int] = field(default_factory=dict)


@pytest.fixture(scope="module")
def scenarios() -> Dict[int, _Scenario]:
    """Every seed's twin, and its float runs at every offset on a
    counting simulator."""
    created: List[_CountingSimulator] = []

    def factory() -> _CountingSimulator:
        created.append(_CountingSimulator())
        return created[-1]

    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler_module, "Simulator", factory)
        for seed in SEEDS:
            queries = fair_weather(seed, 0.0)
            scenario = _Scenario(queries, *exact_run(queries))
            for offset in OFFSETS:
                shifted = fair_weather(seed, offset)
                outcome = ContentionScheduler().run(shifted)
                assert len(outcome.finished) == len(shifted), (seed, offset)
                scenario.finishes[offset] = {
                    q.request.request_id: q.finish for q in shifted
                }
                scenario.completions[offset] = created.pop().completions
                scenario.resolves[offset] = outcome.resolves
            results[seed] = scenario
    return results


class TestExactTwin:
    def test_twin_solver_matches_the_float_solver(self):
        demands = {
            "q0": {"a": 1.0, "b": 0.25},
            "q1": {"a": 0.5},
            "q2": {"b": 2.0, "c": 0.1},
            "q3": {},
        }
        floats = solve_concurrent_rates(demands)
        exact = exact_rates(
            [{r: Fraction(v) for r, v in d.items()} for d in demands.values()]
        )
        assert exact[3] is None and floats["q3"] == math.inf
        for worker, rate in zip(["q0", "q1", "q2"], exact):
            assert ulps(floats[worker], rate) <= 4

    def test_twin_lands_every_phase_with_zero_work_left(self, scenarios):
        # exact_run asserts ``remaining == 0`` at every landing; here
        # every query finishes and every phase with work lands.
        for seed, scenario in scenarios.items():
            queries = scenario.queries
            assert set(scenario.exact) == {q.request.request_id for q in queries}
            assert scenario.landed == sum(
                phase.seconds > 0 for q in queries for phase in q.phases
            ), seed


class TestFloatClock:
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_float_finishes_are_within_the_bound_of_the_twin(
        self, scenarios, offset
    ):
        worst = max(
            ulps(finish, scenario.exact[request_id] + Fraction(offset))
            for scenario in scenarios.values()
            for request_id, finish in scenario.finishes[offset].items()
        )
        assert worst <= ULP_BOUND, float(worst)

    @pytest.mark.parametrize("offset", OFFSETS[1:])
    def test_an_offset_run_is_the_shifted_offset_zero_run(self, scenarios, offset):
        worst = max(
            ulps(finish, Fraction(scenario.finishes[0.0][request_id]) + Fraction(offset))
            for scenario in scenarios.values()
            for request_id, finish in scenario.finishes[offset].items()
        )
        assert worst <= ULP_BOUND, float(worst)

    def test_completion_events_fired_equal_phases_landed(self, scenarios):
        for seed, scenario in scenarios.items():
            with_work = sum(
                any(phase.seconds > 0 for phase in q.phases)
                for q in scenario.queries
            )
            for offset in OFFSETS:
                assert scenario.completions[offset] == scenario.landed, (seed, offset)
                # one resolve per admitted query with work, one per landing
                assert scenario.resolves[offset] == with_work + scenario.landed
