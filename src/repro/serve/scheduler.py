"""DES-backed contention scheduler: many queries, one machine, bounded tails.

Single-query execution prices a plan as if the query owned the whole
machine.  Under serving traffic that is exactly wrong — co-running
queries fight for the same memory channels and interconnect links the
paper's Section 6 co-processing already models *within* one query.
This scheduler extends that model *across* queries:

* each admitted query runs its solo-priced phases **sequentially**
  (a phase is ``solo_seconds`` of work, with a per-second resource
  occupancy vector taken from its :class:`~repro.costmodel.model.
  PhaseCost`);
* all currently-active phases contend: their per-unit occupancy
  vectors go through :func:`~repro.sim.resources.solve_concurrent_
  rates`, and each query progresses at the solved (max-min fair) rate,
  clamped to 1.0 so a query alone finishes in exactly its solo time —
  serving can only stretch a query, never speed it up;
* arrivals and phase completions are events on a deterministic
  :class:`~repro.sim.engine.Simulator`; every change to the active set
  re-solves the rate vector and keeps **one** completion event live —
  the soonest, first in ``active`` order on ties — revoking its
  predecessor (:meth:`Simulator.cancel_event`).  No superseded event
  is left to fire, so the final clock *is* the makespan: the last
  finish, cancellation, failure, shed or admission drop.
* within one run, per-unit occupancy vectors are interned per (phase,
  capacity factors) — ``PhaseCost`` objects are shared through the
  plan cache — and a solve whose ordered input vectors were already
  solved is answered from a table: the solver is a pure function of
  that sequence, so a hit returns the floats a fresh solve would.  A
  capacity hook may declare an ``epoch()`` that moves whenever one of
  its answers could change or an ask could have a side effect; a
  phase's vector is then derived once per epoch and the hook is not
  asked again until the epoch moves.

On top of that fair-weather model, the scheduler enforces the serving
layer's *resilience* contract:

* **deadlines** — a request carrying a latency budget gets one
  cancellable deadline event at ``arrival + deadline``; if it fires
  before completion the query is cancelled mid-phase (every active
  query's progress is banked first, its admission share released via
  ``on_evict``), and the follow-up resolve re-times the survivors.
  Queries that finish in time cancel the event
  (:meth:`Simulator.cancel_event`), so the fault-free event stream is
  untouched.
* **serving faults + retry** — an optional ``fault`` hook runs at
  every phase boundary; when it reports a :class:`PhaseFault` the
  query is evicted and either resubmitted at ``now + retry_delay``
  (capped exponential backoff in *virtual* time, decided by the
  service's :class:`~repro.faults.recovery.RetryPolicy`) or failed
  terminally.  Resubmissions re-enter through overload control and
  admission like fresh arrivals.
* **overload control** — with a :class:`~repro.serve.policy.
  ServicePolicy`, arrivals beyond ``max_active`` wait in a bounded
  FIFO queue; a full queue sheds with ``queue_full``, and an arrival
  whose max-min-solved rate against the current active set predicts a
  stretch beyond ``stretch_limit`` sheds with ``stretch`` — typed,
  pre-admission, zero machine time.
* **degraded capacity** — an optional ``capacity`` hook scales
  per-unit resource demands by ``1/factor``, so a
  :class:`~repro.faults.plan.DegradeLink` installed mid-serving slows
  every query crossing the degraded link through the same max-min
  re-solve that handles contention.

Under the inert default policy with no hooks, every per-query
timestamp and outcome, ``resolves`` and ``peak_concurrency`` are
bit-identical to the PR 9 scheduler (pinned by the chaos-serving and
scheduler equivalence suites); ``makespan`` is not — that scheduler
reported the clock of the last *superseded* completion, which
overstated it; ``makespan`` is now the last terminal event.  Past
~1e5 virtual seconds, where that scheduler re-solved a completion
that fired with ULP-sized work left, a timestamp can also differ by
one or two ULPs.

The clock needs no tolerance.  Banked progress floors ``remaining``
at zero, so every completion eta ``now + remaining/rate`` is at or
after ``now``; the soonest one is the only live completion, and every
change to the active set revokes it.  A completion that fires therefore
finishes its phase — the work float rounding leaves is worth about one
ULP of the clock — so completion events fired equal phases landed, at
any virtual time.  ``tests/serve/test_clock_oracle.py`` checks the
finish times against an exact-arithmetic twin of this loop.

This module is the only sanctioned driver of ``Simulator.run`` for
multi-query workloads (``tests/test_architecture.py`` confines
``Simulator`` construction and ``schedule_at``/``cancel_event`` calls
to it, ``repro.sim`` and ``repro.plan``); everything else goes through
the single-query :class:`~repro.plan.PlanExecutor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.costmodel.model import PhaseCost
from repro.sim.engine import Event, Simulator
from repro.sim.resources import solve_concurrent_rates

from repro.serve.policy import (
    OUTCOME_DEADLINE,
    OUTCOME_FAILED,
    SHED_QUEUE_FULL,
    SHED_STRETCH,
    ServicePolicy,
)
from repro.serve.request import ServedQuery, ShedQuery

#: admission callback: (query, now) -> admitted?  Returning False drops
#: the query (the service records the typed rejection).
AdmitHook = Callable[[ServedQuery, float], bool]
#: completion callback: (query, now) — quota release, metrics.
FinishHook = Callable[[ServedQuery, float], None]
#: eviction callback: (query, now) — a deadline cancellation or fault
#: removed an *admitted* query mid-flight; release its quota share.
EvictHook = Callable[[ServedQuery, float], None]
#: serving-fault hook: (query, phase_index, attempt, now) -> fault?
#: Returning None lets the phase proceed; a :class:`PhaseFault` evicts
#: the query (retry or terminal failure).
FaultHook = Callable[[ServedQuery, int, int, float], Optional["PhaseFault"]]
#: capacity hook: resource -> factor in (0, 1]; per-unit demands are
#: scaled by 1/factor (a degraded link makes the same work occupy more
#: of the resource per second).  A hook may also carry ``epoch()``: while
#: it returns the same value, every ask returns its last answer and has
#: no side effect, so the scheduler skips the asks.
CapacityHook = Callable[[str], float]
#: shed callback: (query, reason, detail, now) — bookkeeping only; the
#: scheduler already recorded the typed ShedQuery.
ShedHook = Callable[[ServedQuery, str, float, float], None]


@dataclass(frozen=True)
class PhaseFault:
    """A serving fault injected at one query's phase boundary.

    ``retry_delay`` is the virtual-time backoff before the query is
    resubmitted (it re-enters overload control and admission like a
    fresh arrival); None fails the query terminally.
    """

    retry_delay: Optional[float] = None
    reason: str = "fault"


class SchedulerError(RuntimeError):
    """The scheduler drained its event queue with queries unfinished.

    Mirrors the :class:`~repro.sim.resources.SolverError` diagnostics
    pattern: instead of a bare message, the error carries the stuck
    request ids with their phase indices and remaining solo-seconds of
    work (``stuck``), plus the virtual clock at drain (``clock``) — so
    a hung serving run names exactly which queries wedged and how much
    work the simulator thought was left.
    """

    def __init__(
        self, stuck: Sequence[Tuple[int, int, float]], clock: float
    ) -> None:
        self.stuck: Tuple[Tuple[int, int, float], ...] = tuple(stuck)
        self.clock = clock
        detail = ", ".join(
            f"#{request_id} (phase {phase_index}, {remaining:.9g}s left)"
            for request_id, phase_index, remaining in self.stuck
        )
        super().__init__(
            f"scheduler drained with {len(self.stuck)} unfinished "
            f"quer{'y' if len(self.stuck) == 1 else 'ies'} at "
            f"t={clock:.9g}: {detail}"
        )


@dataclass
class _Active:
    """One query currently on the machine."""

    query: ServedQuery
    phase_index: int = 0
    #: solo-seconds of work left in the current phase.
    remaining: float = 0.0
    #: currently-solved progress rate (solo-seconds per virtual second).
    rate: float = 1.0
    #: virtual time of the last progress update.
    updated: float = 0.0
    #: serving attempt (0 = first submission, bumped per retry).
    attempt: int = 0

    def phase(self) -> PhaseCost:
        return self.query.phases[self.phase_index]


@dataclass
class ScheduleOutcome:
    """What one scheduler run did to the admitted queries."""

    finished: List[ServedQuery] = field(default_factory=list)
    dropped: List[ServedQuery] = field(default_factory=list)
    #: queries cancelled mid-flight by their deadline event.
    deadline_exceeded: List[ServedQuery] = field(default_factory=list)
    #: queries terminally failed by serving faults (retry budget spent).
    failed: List[ServedQuery] = field(default_factory=list)
    #: requests load-shed by overload control (typed reasons).
    shed: List[ShedQuery] = field(default_factory=list)
    #: virtual time of the last terminal event: a finish, cancellation,
    #: terminal failure, shed or admission drop.
    makespan: float = 0.0
    peak_concurrency: int = 0
    #: how many times rates were re-derived after the active set changed
    #: (a repeated solver input is answered without a fresh solve).
    resolves: int = 0
    #: serving-level resubmissions scheduled (fault retries).
    retries: int = 0

    def accounted(self) -> int:
        """Queries that reached a terminal bucket (conservation input)."""
        return (
            len(self.finished)
            + len(self.dropped)
            + len(self.deadline_exceeded)
            + len(self.failed)
            + len(self.shed)
        )


def _check_queries(queries: Sequence[ServedQuery]) -> None:
    """Reject input that would be silently mis-served: a repeated request
    id (queries are tracked by it), an arrival that is not a finite
    time >= 0, a deadline that is not finite and > 0, or NaN/negative/
    infinite phase work."""
    seen: set = set()
    for query in queries:
        request = query.request
        request_id = request.request_id
        if request_id in seen:
            raise ValueError(f"request id #{request_id} appears twice")
        seen.add(request_id)
        if not 0.0 <= request.arrival < math.inf:
            raise ValueError(
                f"request #{request_id}: arrival must be finite and >= 0, "
                f"got {request.arrival}"
            )
        if request.deadline is not None and not 0.0 < request.deadline < math.inf:
            raise ValueError(
                f"request #{request_id}: deadline must be finite and > 0, "
                f"got {request.deadline}"
            )
        for phase_index, phase in enumerate(query.phases):
            if not 0.0 <= phase.seconds < math.inf:
                raise ValueError(
                    f"request #{request_id} phase {phase_index}: seconds "
                    f"must be finite and >= 0, got {phase.seconds}"
                )


class ContentionScheduler:
    """Multiplexes admitted queries over one simulated machine."""

    def run(
        self,
        queries: Sequence[ServedQuery],
        admit: Optional[AdmitHook] = None,
        on_finish: Optional[FinishHook] = None,
        on_evict: Optional[EvictHook] = None,
        fault: Optional[FaultHook] = None,
        capacity: Optional[CapacityHook] = None,
        on_shed: Optional[ShedHook] = None,
        policy: Optional[ServicePolicy] = None,
    ) -> ScheduleOutcome:
        """Serve ``queries`` (arrival order) and stamp start/finish.

        ``admit`` runs at each query's arrival event against the
        *current* in-flight population; rejected queries are dropped
        and reported in :attr:`ScheduleOutcome.dropped`.  ``on_evict``
        releases the admission share of queries removed mid-flight
        (deadline cancellation, fault eviction).  With every optional
        hook absent and the default (inert) policy, every per-query
        result is bit-identical to the fair-weather PR 9 scheduler.
        A repeated request id, a non-finite or negative arrival, a
        non-finite or non-positive deadline, or non-finite/negative
        phase seconds raise ``ValueError`` before any event is scheduled.
        """
        policy = policy if policy is not None else ServicePolicy()
        _check_queries(queries)
        sim = Simulator()
        outcome = ScheduleOutcome()
        active: Dict[int, _Active] = {}
        #: FIFO of queries admitted but waiting for an active slot.
        waiting: List[_Active] = []
        #: one cancellable deadline event per deadline-carrying request.
        deadline_events: Dict[int, Event] = {}
        #: pending retry-resubmission events (cancelled on deadline).
        retry_events: Dict[int, Event] = {}
        #: request ids currently holding an admission share.
        holding: set = set()
        #: the one scheduled completion (the soonest), or None.
        completion_event: Optional[Event] = None
        #: (phase, per-unit occupancy vector) by (phase identity, capacity
        #: factors); holding the phase keeps its identity unique.
        vectors: Dict[tuple, Tuple[PhaseCost, Dict[str, float]]] = {}
        #: (capacity epoch, vector) by phase identity: the vector holds
        #: until the epoch moves.  With no hook nothing moves; a hook
        #: without ``epoch`` is one whose epoch moves on every ask.
        adjusted: Dict[int, Tuple[object, Dict[str, float]]] = {}
        epoch: Callable[[], object] = (
            (lambda: 0)
            if capacity is None
            else getattr(capacity, "epoch", None) or count().__next__
        )
        #: solved rates by the identities of the solver's input vectors
        #: in worker order (the solver is a pure function of them).
        solved: Dict[Tuple[int, ...], List[float]] = {}

        def per_unit_occupancy(phase: PhaseCost) -> Dict[str, float]:
            """Per-second occupancy of one phase, capacity-adjusted; the
            hook is asked again only once its epoch has moved, and the
            division runs once per distinct answer."""
            at = epoch()
            known = adjusted.get(id(phase))
            if known is not None and known[0] == at:
                return known[1]
            factors = () if capacity is None else tuple(
                map(capacity, phase.occupancy)
            )
            key = (id(phase), factors)
            entry = vectors.get(key)
            if entry is None:
                demands: Dict[str, float] = {}
                for (resource, busy), factor in zip(
                    phase.occupancy.items(), factors or repeat(1.0)
                ):
                    if not 0.0 < factor <= 1.0:
                        raise ValueError(
                            f"capacity factor for {resource!r} must be in "
                            f"(0, 1]: {factor}"
                        )
                    demands[resource] = busy / (phase.seconds * factor)
                entry = vectors[key] = (phase, demands)
            if epoch() == at:
                # Asking moved nothing: an ask before the epoch moves
                # returns these factors again, with no side effect.
                adjusted[id(phase)] = (at, entry[1])
            return entry[1]

        def contended_rates(candidate: Optional[PhaseCost] = None) -> List[float]:
            """Max-min rate of every active phase, in ``active`` order,
            then of the ``candidate`` phase if one is given."""
            inputs = [per_unit_occupancy(r.phase()) for r in active.values()]
            if candidate is not None:
                inputs.append(per_unit_occupancy(candidate))
            key = tuple(map(id, inputs))
            rates = solved.get(key)
            if rates is None:
                # Workers are the request ids; zip() drops the extra
                # "candidate" key when there is no candidate vector.
                demands = dict(zip([*active, "candidate"], inputs))
                by_worker = solve_concurrent_rates(demands)
                rates = solved[key] = [by_worker[w] for w in demands]
            return rates

        def advance_progress(now: float) -> None:
            for record in active.values():
                elapsed = now - record.updated
                if elapsed > 0:
                    record.remaining = max(
                        0.0, record.remaining - elapsed * record.rate
                    )
                record.updated = now

        def release(query: ServedQuery, now: float) -> None:
            """Return the admission share of an evicted query (once)."""
            request_id = query.request.request_id
            if request_id in holding:
                holding.discard(request_id)
                if on_evict is not None:
                    on_evict(query, now)

        def drop_deadline(query: ServedQuery) -> None:
            event = deadline_events.pop(query.request.request_id, None)
            if event is not None:
                sim.cancel_event(event)

        def enter_phase(record: _Active, now: float) -> bool:
            """Advance past zero-second phases, firing the fault hook at
            each real phase boundary; True when the query left the
            active set (finished, faulted, or retried)."""
            while record.phase_index < len(record.query.phases):
                phase = record.phase()
                if phase.seconds > 0:
                    if record.remaining <= 0:
                        record.remaining = phase.seconds
                    if fault is not None:
                        injected = fault(
                            record.query,
                            record.phase_index,
                            record.attempt,
                            now,
                        )
                        if injected is not None:
                            handle_fault(record, injected, now)
                            return True
                    return False
                record.phase_index += 1
                record.remaining = 0.0
            finish_query(record, now)
            return True

        def finish_query(record: _Active, now: float) -> None:
            query = record.query
            query.finish = now
            del active[query.request.request_id]
            holding.discard(query.request.request_id)
            drop_deadline(query)
            outcome.finished.append(query)
            if on_finish is not None:
                on_finish(query, now)
            start_waiting(now)

        def handle_fault(
            record: _Active, injected: PhaseFault, now: float
        ) -> None:
            """Evict a faulted query: resubmit with backoff or fail."""
            query = record.query
            request_id = query.request.request_id
            if request_id in active:
                del active[request_id]
            if injected.retry_delay is not None:
                query.retries += 1
                outcome.retries += 1
                release(query, now)
                retry_events[request_id] = sim.schedule_at(
                    now + injected.retry_delay,
                    make_retry(query, record.attempt + 1),
                )
            else:
                query.finish = now
                query.cancelled_at = now
                query.outcome = OUTCOME_FAILED
                release(query, now)
                drop_deadline(query)
                outcome.failed.append(query)
            start_waiting(now)

        def cancel_on_deadline(query: ServedQuery, now: float) -> None:
            """Common terminal bookkeeping of a fired deadline."""
            query.finish = now
            query.cancelled_at = now
            query.outcome = OUTCOME_DEADLINE
            release(query, now)
            outcome.deadline_exceeded.append(query)

        def shed(
            query: ServedQuery, reason: str, detail: float, now: float
        ) -> None:
            drop_deadline(query)
            outcome.shed.append(
                ShedQuery(
                    request=query.request,
                    reason=reason,
                    detail=detail,
                    at=now,
                )
            )
            if on_shed is not None:
                on_shed(query, reason, detail, now)

        def predicted_stretch(query: ServedQuery, now: float) -> float:
            """Stretch the newcomer's dominant phase would suffer now.

            The newcomer's longest phase (the one dominating its solo
            cost) is solved against the current active set; the
            threshold is relative to solo speed, so ``1/rate`` is the
            predicted stretch — 1.0 means the machine has headroom.
            """
            dominant: Optional[PhaseCost] = None
            for phase in query.phases:
                if phase.seconds <= 0:
                    continue
                if dominant is None or phase.seconds > dominant.seconds:
                    dominant = phase
            if dominant is None or not dominant.occupancy:
                return 1.0
            advance_progress(now)
            rate = min(1.0, contended_rates(dominant)[-1])
            if rate <= 0:
                return float("inf")
            return 1.0 / rate

        def start_waiting(now: float) -> None:
            """Move queued queries into freed active slots (FIFO)."""
            while (
                waiting
                and policy.max_active is not None
                and len(active) < policy.max_active
            ):
                record = waiting.pop(0)
                begin(record, now)

        def begin(record: _Active, now: float) -> None:
            """Start (or resume after dequeue) one admitted query."""
            query = record.query
            query.start = now if record.attempt == 0 else query.start
            record.updated = now
            active[query.request.request_id] = record
            if enter_phase(record, now):
                return
            outcome.peak_concurrency = max(
                outcome.peak_concurrency, len(active)
            )
            resolve(sim)

        def admit_and_start(
            query: ServedQuery, attempt: int, simulator: Simulator
        ) -> None:
            """The arrival/resubmission path: shed -> admit -> start."""
            now = simulator.now
            would_queue = (
                policy.max_active is not None
                and len(active) >= policy.max_active
            )
            if would_queue:
                if (
                    policy.queue_depth is not None
                    and len(waiting) >= policy.queue_depth
                ):
                    shed(query, SHED_QUEUE_FULL, float(len(waiting)), now)
                    return
            elif policy.stretch_limit is not None and active:
                stretch = predicted_stretch(query, now)
                if stretch > policy.stretch_limit:
                    shed(query, SHED_STRETCH, stretch, now)
                    return
            if admit is not None and not admit(query, now):
                drop_deadline(query)
                outcome.dropped.append(query)
                return
            holding.add(query.request.request_id)
            if attempt == 0 and query.request.deadline is not None:
                deadline_events[query.request.request_id] = (
                    simulator.schedule_at(
                        query.request.arrival + query.request.deadline,
                        make_deadline(query),
                    )
                )
            record = _Active(query=query, updated=now, attempt=attempt)
            if would_queue:
                query.start = now if attempt == 0 else query.start
                waiting.append(record)
                return
            begin(record, now)

        def resolve(simulator: Simulator) -> None:
            """Re-solve rates and re-schedule the soonest completion."""
            nonlocal completion_event
            outcome.resolves += 1
            if completion_event is not None:
                simulator.cancel_event(completion_event)
                completion_event = None
            if not active:
                return
            now = simulator.now
            advance_progress(now)
            soonest: Optional[_Active] = None
            soonest_eta = 0.0
            for (request_id, record), solved_rate in zip(
                active.items(), contended_rates()
            ):
                # A query never runs faster than solo: per-unit demand
                # is occupancy per solo-second, so rate 1.0 reproduces
                # the solo duration exactly.
                record.rate = min(1.0, solved_rate)
                if record.rate <= 0:
                    raise SchedulerError(
                        [(request_id, record.phase_index, record.remaining)],
                        now,
                    )
                # ``remaining >= 0``, so ``eta >= now``; the first in
                # ``active`` order wins a tie.
                eta = now + record.remaining / record.rate
                if soonest is None or eta < soonest_eta:
                    soonest, soonest_eta = record, eta
            completion_event = simulator.schedule_at(
                soonest_eta, make_completion(soonest)
            )

        def make_completion(record: _Active):
            def completion(simulator: Simulator) -> None:
                # Every change to the active set ends in resolve(),
                # which revokes this event: if it fires, ``record`` is
                # active, in the phase it was scheduled for, and done
                # with it up to float rounding.
                now = simulator.now
                advance_progress(now)
                record.phase_index += 1
                record.remaining = 0.0
                enter_phase(record, now)
                resolve(simulator)

            return completion

        def make_deadline(query: ServedQuery):
            def deadline(simulator: Simulator) -> None:
                request_id = query.request.request_id
                deadline_events.pop(request_id, None)
                now = simulator.now
                record = active.get(request_id)
                if record is not None:
                    # Cancel mid-phase: bank the progress accumulated so
                    # far, evict, then re-solve so survivors' remaining
                    # work and completion etas are repaired.
                    advance_progress(now)
                    del active[request_id]
                    cancel_on_deadline(query, now)
                    start_waiting(now)
                    resolve(simulator)
                    return
                for index, queued in enumerate(waiting):
                    if queued.query.request.request_id == request_id:
                        del waiting[index]
                        cancel_on_deadline(query, now)
                        return
                retry_event = retry_events.pop(request_id, None)
                if retry_event is not None:
                    # Expired during retry backoff: the admission share
                    # was already released at eviction time.
                    simulator.cancel_event(retry_event)
                    cancel_on_deadline(query, now)

            return deadline

        def make_retry(query: ServedQuery, attempt: int):
            def retry(simulator: Simulator) -> None:
                retry_events.pop(query.request.request_id, None)
                admit_and_start(query, attempt, simulator)

            return retry

        def make_arrival(query: ServedQuery):
            def arrival(simulator: Simulator) -> None:
                admit_and_start(query, 0, simulator)

            return arrival

        for query in sorted(
            queries,
            key=lambda q: (q.request.arrival, q.request.request_id),
        ):
            sim.schedule_at(query.request.arrival, make_arrival(query))

        outcome.makespan = sim.run()
        if active or waiting:
            stuck = sorted(
                [
                    (request_id, record.phase_index, record.remaining)
                    for request_id, record in active.items()
                ]
                + [
                    (
                        record.query.request.request_id,
                        record.phase_index,
                        record.remaining,
                    )
                    for record in waiting
                ]
            )
            raise SchedulerError(stuck, sim.now)
        return outcome


__all__ = [
    "ContentionScheduler",
    "PhaseFault",
    "ScheduleOutcome",
    "SchedulerError",
]
