"""Seeded generator of scheduler scenarios, and their fingerprint.

One ``build(seed)`` call yields a :class:`Scenario`: 1-40 synthetic
queries over a few shared plans (so ``PhaseCost`` objects repeat across
queries, as they do through the plan cache), zero-second phases,
arrivals tied on round numbers next to accumulated-float ones,
deadlines, a bounded queue / concurrency cap / stretch limit, an
admission quota, a fault hook with capped exponential backoff and
terminal failures, and a *stateful* capacity hook (its answer depends
on how often it was asked, like a ``times=``-limited ``DegradeLink``).
Every hook appends to one call log.

Everything is derived from ``random.Random(seed)`` and ``zlib.crc32`` —
never the builtin ``hash`` — so a scenario is the same in every process.
``fingerprint`` lists everything a scheduler run decided except
``makespan``; the equivalence suite hashes it against a value recorded
at the commit before the one-live-completion scheduler landed.
"""

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.costmodel.model import PhaseCost
from repro.serve.policy import ServicePolicy
from repro.serve.request import QueryRequest, ServedQuery
from repro.serve.scheduler import ContentionScheduler, PhaseFault, ScheduleOutcome

RESOURCES = (
    "mem:cpu0-mem",
    "mem:gpu0-mem",
    "link:nvlink0",
    "link:xbus",
    "core:gpu0",
)
ROUND_SECONDS = (0.25, 0.5, 1.0, 2.0)


@dataclass
class Scenario:
    queries: List[ServedQuery]
    policy: ServicePolicy
    #: keyword arguments of ``ContentionScheduler.run`` (the hooks).
    hooks: Dict[str, Any]
    #: every hook call, in call order.
    log: List[Tuple[Any, ...]] = field(default_factory=list)

    def run(self) -> ScheduleOutcome:
        return ContentionScheduler().run(
            self.queries, policy=self.policy, **self.hooks
        )


def make_query(
    request_id: int,
    arrival: float,
    phases: List[PhaseCost],
    tenant: str = "alpha",
    deadline: Optional[float] = None,
) -> ServedQuery:
    return ServedQuery(
        request=QueryRequest(
            request_id=request_id,
            tenant=tenant,
            workload="synthetic",
            machine="ibm-ac922",
            arrival=arrival,
            deadline=deadline,
        ),
        phases=list(phases),
        solo_seconds=sum(phase.seconds for phase in phases),
    )


def _chance(seed: int, *parts: int) -> float:
    """A stable pseudo-random number in [0, 1) for ``(seed, *parts)``."""
    text = ":".join(str(part) for part in (seed, *parts))
    return zlib.crc32(text.encode()) / 2**32


def _phase(rng: random.Random, label: str) -> PhaseCost:
    if rng.random() < 0.15:
        return PhaseCost(0.0, "(none)", {}, label)
    seconds = (
        rng.choice(ROUND_SECONDS)
        if rng.random() < 0.5
        else rng.uniform(0.05, 2.0)
    )
    occupancy = {
        resource: seconds
        * (1.0 if rng.random() < 0.4 else rng.uniform(0.1, 1.0))
        for resource in rng.sample(RESOURCES, rng.randint(1, 3))
    }
    if rng.random() < 0.05:
        occupancy = {}  # fixed overhead only: runs at solo speed
    bottleneck = max(occupancy, key=occupancy.get) if occupancy else "(none)"
    return PhaseCost(seconds, bottleneck, occupancy, label)


def _plan(rng: random.Random, name: str) -> List[PhaseCost]:
    return [_phase(rng, f"{name}.{i}") for i in range(rng.randint(1, 3))]


def _arrivals(rng: random.Random, count: int) -> List[float]:
    style = rng.choice(("round", "poisson", "burst"))
    if style == "round":
        return [0.25 * rng.randint(0, 2 * count) for _ in range(count)]
    if style == "burst":
        return [rng.choice((0.0, 0.5, 1.0)) for _ in range(count)]
    arrivals, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rng.choice((1.0, 4.0)))
        arrivals.append(clock)
    return arrivals


def _policy(rng: random.Random) -> ServicePolicy:
    max_active = rng.choice((None, None, None, 1, 2, 4))
    queue_depth = (
        rng.choice((None, 0, 1, 2, 3)) if max_active is not None else None
    )
    stretch_limit = rng.choice((None, None, None, 1.0, 2.0, 4.0))
    return ServicePolicy(
        max_active=max_active,
        queue_depth=queue_depth,
        stretch_limit=stretch_limit,
    )


def build(seed: int) -> Scenario:
    """The scenario of ``seed`` (fresh queries and hook state each call)."""
    rng = random.Random(seed)
    count = rng.randint(1, 40)
    plans = [_plan(rng, f"plan{i}") for i in range(rng.randint(1, 4))]
    queries = []
    for request_id, arrival in enumerate(_arrivals(rng, count)):
        shared = rng.random() < 0.8
        phases = rng.choice(plans) if shared else _plan(rng, f"q{request_id}")
        solo = sum(phase.seconds for phase in phases)
        deadline: Optional[float] = None
        if rng.random() < 0.3:
            deadline = rng.choice(
                (0.5, 1.0, 2.0, solo, max(0.01, solo * rng.uniform(0.5, 3.0)))
            )
        tenant = rng.choice(("alpha", "beta"))
        queries.append(
            make_query(request_id, arrival, phases, tenant, deadline or None)
        )
    rng.shuffle(queries)  # run() must order by (arrival, request id) itself

    scenario = Scenario(queries, _policy(rng), hooks={})
    log = scenario.log
    quota = rng.choice((None, None, 2, 4, 6))
    fault_rate = rng.choice((0.0, 0.0, 0.1, 0.3))
    max_attempts = rng.randint(1, 3)
    base_delay = rng.choice((0.05, 0.25, 0.5))
    degraded = rng.choice((None, None) + RESOURCES[2:4])
    degrade_from, degrade_calls = rng.randint(0, 60), rng.randint(1, 200)
    inflight: Dict[str, int] = {}

    def admit(query: ServedQuery, now: float) -> bool:
        tenant = query.request.tenant
        admitted = quota is None or inflight.get(tenant, 0) < quota
        if admitted:
            inflight[tenant] = inflight.get(tenant, 0) + 1
        log.append(("admit", query.request.request_id, repr(now), admitted))
        return admitted

    def release(kind: str):
        def hook(query: ServedQuery, now: float) -> None:
            inflight[query.request.tenant] -= 1
            log.append((kind, query.request.request_id, repr(now)))

        return hook

    def fault(
        query: ServedQuery, phase_index: int, attempt: int, now: float
    ) -> Optional[PhaseFault]:
        request_id = query.request.request_id
        log.append(("fault", request_id, phase_index, attempt, repr(now)))
        if _chance(seed, request_id, phase_index, attempt) >= fault_rate:
            return None
        if attempt + 1 >= max_attempts:
            return PhaseFault(retry_delay=None)
        return PhaseFault(retry_delay=min(1.0, base_delay * 2.0**attempt))

    asked = [0]

    def capacity(resource: str) -> float:
        log.append(("capacity", resource))
        if resource != degraded:
            return 1.0
        asked[0] += 1
        live = degrade_from < asked[0] <= degrade_from + degrade_calls
        return 0.5 if live else 1.0

    def on_shed(
        query: ServedQuery, reason: str, detail: float, now: float
    ) -> None:
        log.append(
            ("shed", query.request.request_id, reason, repr(detail), repr(now))
        )

    scenario.hooks.update(
        admit=admit,
        on_finish=release("finish"),
        on_evict=release("evict"),
        on_shed=on_shed,
    )
    if fault_rate:
        scenario.hooks["fault"] = fault
    if degraded is not None:
        scenario.hooks["capacity"] = capacity
    return scenario


def fingerprint(scenario: Scenario, outcome: ScheduleOutcome) -> List[str]:
    """Everything the run decided, except ``makespan``, as text lines."""
    lines = [
        repr(
            (
                query.request.request_id,
                repr(query.start),
                repr(query.finish),
                query.outcome,
                repr(query.cancelled_at),
                query.retries,
            )
        )
        for query in sorted(
            scenario.queries, key=lambda q: q.request.request_id
        )
    ]
    for bucket in ("finished", "dropped", "deadline_exceeded", "failed"):
        ids = [q.request.request_id for q in getattr(outcome, bucket)]
        lines.append(f"{bucket}={ids}")
    lines.append(
        "shed="
        + repr(
            [
                (s.request.request_id, s.reason, repr(s.detail), repr(s.at))
                for s in outcome.shed
            ]
        )
    )
    lines.append(
        f"resolves={outcome.resolves} peak={outcome.peak_concurrency} "
        f"retries={outcome.retries}"
    )
    lines.extend(repr(call) for call in scenario.log)
    return lines


def last_terminal(scenario: Scenario, outcome: ScheduleOutcome) -> float:
    """The latest timestamp at which any request reached a terminal bucket."""
    stamps = [
        query.finish
        for bucket in (outcome.finished, outcome.deadline_exceeded, outcome.failed)
        for query in bucket
    ]
    stamps += [shed.at for shed in outcome.shed]
    stamps += [
        float(call[2])
        for call in scenario.log
        if call[0] == "admit" and not call[3]
    ]
    return max(stamps)
