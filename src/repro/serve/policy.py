"""Resilience policy of the serving layer: overload + retry + breaker.

PR 9's serving engine is fair-weather: an admitted query runs to
completion no matter how long contention stretches it, and overload
beyond the admission quotas piles onto the shared machine unbounded.
This module holds the knobs that bound both tails:

* :class:`ServicePolicy` — one frozen bundle of overload-control and
  retry knobs the :class:`~repro.serve.service.QueryService` applies to
  every request.  The default policy is *inert*: no concurrency cap,
  no shedding, no default deadline, breaker disabled — a fault-free
  serve under the default policy is bit-identical to PR 9 scheduling.
* :class:`CircuitBreaker` — a per-workload closed/open/half-open state
  machine over *virtual* time.  K consecutive serving failures of one
  workload open its breaker; while open, submissions and retries of
  that workload fast-fail (typed, no machine time spent) until the
  cooldown elapses and one half-open probe is allowed through.
* typed shed reasons (:data:`SHED_QUEUE_FULL`, :data:`SHED_STRETCH`)
  and the terminal :data:`OUTCOME_*` vocabulary shared by the
  scheduler, the report, and the manifest ``serving`` section.

Everything here is deterministic: breaker transitions happen at event
times on the serving simulator's clock, never wall-clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults.recovery import RetryPolicy

# -- terminal outcomes -------------------------------------------------------

#: the query ran to completion.
OUTCOME_FINISHED = "finished"
#: the query's deadline fired before it completed; it was cancelled
#: mid-phase and its admission share released.
OUTCOME_DEADLINE = "deadline_exceeded"
#: a serving fault (or an open breaker) failed the query terminally
#: after the retry budget was spent.
OUTCOME_FAILED = "failed"

#: every terminal state a served query can reach (manifest vocabulary).
OUTCOMES = (OUTCOME_FINISHED, OUTCOME_DEADLINE, OUTCOME_FAILED)

# -- typed shedding ----------------------------------------------------------

#: the bounded pending queue was full at arrival.
SHED_QUEUE_FULL = "queue_full"
#: predicted stretch under current contention exceeded the policy
#: threshold (admitting would blow the tail, so degrade to a cheap
#: typed rejection instead — the Vortex-style graceful answer).
SHED_STRETCH = "stretch"

SHED_REASONS = (SHED_QUEUE_FULL, SHED_STRETCH)


class ShedError(RuntimeError):
    """A request was load-shed before admission (typed, not a crash).

    Attributes: ``reason`` (one of :data:`SHED_REASONS`),
    ``request_id``, and ``detail`` (the observed value that tripped the
    policy — queue depth or predicted stretch).
    """

    def __init__(self, reason: str, request_id: int, detail: float) -> None:
        if reason not in SHED_REASONS:
            raise ValueError(
                f"unknown shed reason {reason!r}; valid: "
                + ", ".join(SHED_REASONS)
            )
        self.reason = reason
        self.request_id = request_id
        self.detail = detail
        super().__init__(
            f"request #{request_id} shed ({reason}): observed {detail:g}"
        )


# -- circuit breaker ---------------------------------------------------------

#: breaker states (manifest vocabulary).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

BREAKER_STATES = (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)


class CircuitOpenError(RuntimeError):
    """A submission/retry fast-failed because its workload's breaker is open."""

    def __init__(self, workload: str, request_id: int, opened_at: float) -> None:
        self.workload = workload
        self.request_id = request_id
        self.opened_at = opened_at
        super().__init__(
            f"request #{request_id}: circuit for workload {workload!r} "
            f"opened at t={opened_at:.6f} and has not cooled down"
        )


@dataclass
class _BreakerState:
    state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    #: counters for the report section.
    failures_total: int = 0
    fastfails_total: int = 0
    opens_total: int = 0


class CircuitBreaker:
    """Per-workload consecutive-failure breaker over virtual time.

    * **closed** — requests flow; each terminal serving failure bumps
      the workload's consecutive-failure count, each success resets it.
    * **open** — reached when the count hits ``threshold``; every
      request of that workload fast-fails until ``cooldown`` virtual
      seconds elapse.
    * **half-open** — after the cooldown one probe request is allowed
      through; its success closes the breaker, its failure re-opens it
      (restarting the cooldown).

    ``threshold=None`` disables the breaker entirely (the inert
    default — :meth:`allow` always returns True and records nothing).
    """

    def __init__(
        self, threshold: Optional[int] = None, cooldown: float = math.inf
    ) -> None:
        if threshold is not None and threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1: {threshold}")
        if not cooldown >= 0:  # NaN too: an open circuit would never cool
            raise ValueError(f"breaker cooldown must be >= 0: {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._workloads: Dict[str, _BreakerState] = {}

    @property
    def enabled(self) -> bool:
        return self.threshold is not None

    def _entry(self, workload: str) -> _BreakerState:
        return self._workloads.setdefault(workload, _BreakerState())

    def state(self, workload: str, now: Optional[float] = None) -> str:
        """The workload's breaker state (cooldown applied when ``now`` given)."""
        if not self.enabled:
            return BREAKER_CLOSED
        entry = self._entry(workload)
        if (
            entry.state == BREAKER_OPEN
            and now is not None
            and now - entry.opened_at >= self.cooldown
        ):
            entry.state = BREAKER_HALF_OPEN
        return entry.state

    def allow(self, workload: str, now: float) -> bool:
        """May a request of ``workload`` proceed at virtual time ``now``?

        An open breaker whose cooldown elapsed transitions to
        half-open and lets exactly this probe through; a still-hot open
        breaker counts a fast-fail and refuses.
        """
        if not self.enabled:
            return True
        state = self.state(workload, now)
        if state == BREAKER_OPEN:
            self._entry(workload).fastfails_total += 1
            return False
        return True

    def opened_at(self, workload: str) -> float:
        """Virtual time the workload's breaker last opened (0.0 if never)."""
        return self._entry(workload).opened_at

    def record_failure(self, workload: str, now: float) -> str:
        """Count one terminal serving failure; returns the new state."""
        if not self.enabled:
            return BREAKER_CLOSED
        entry = self._entry(workload)
        entry.failures_total += 1
        if entry.state == BREAKER_HALF_OPEN:
            # the half-open probe failed: straight back to open.
            entry.state = BREAKER_OPEN
            entry.opened_at = now
            entry.opens_total += 1
            return entry.state
        entry.consecutive_failures += 1
        assert self.threshold is not None
        if (
            entry.state == BREAKER_CLOSED
            and entry.consecutive_failures >= self.threshold
        ):
            entry.state = BREAKER_OPEN
            entry.opened_at = now
            entry.opens_total += 1
        return entry.state

    def record_success(self, workload: str, now: float) -> str:
        """Count one completed query; closes a half-open breaker."""
        if not self.enabled:
            return BREAKER_CLOSED
        entry = self._entry(workload)
        entry.consecutive_failures = 0
        if entry.state == BREAKER_HALF_OPEN:
            entry.state = BREAKER_CLOSED
        return entry.state

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-workload breaker counters, JSON-ready (report input)."""
        return {
            workload: {
                "state": entry.state,
                "consecutive_failures": entry.consecutive_failures,
                "failures_total": entry.failures_total,
                "fastfails_total": entry.fastfails_total,
                "opens_total": entry.opens_total,
            }
            for workload, entry in sorted(self._workloads.items())
        }


# -- the policy bundle -------------------------------------------------------

#: serving retries back off in *virtual* seconds — this policy instance
#: is never slept, its schedule is added to resubmission arrival times.
DEFAULT_SERVING_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.05, factor=2.0, max_delay=1.0
)


@dataclass(frozen=True)
class ServicePolicy:
    """Overload-control + retry knobs of one :class:`QueryService`.

    The default instance is inert — no cap, no shedding, no deadline,
    breaker disabled — so a fault-free serve under it reproduces PR 9
    scheduling bit for bit.  ``retry`` only matters once a
    :class:`~repro.faults.FaultPlan` injects serving faults.

    Args:
        retry: serving-level retry budget and virtual-time backoff
            schedule for fault-failed queries (resubmission delay =
            ``retry.delay(attempt)``; never slept).
        breaker_threshold: consecutive failures of one workload that
            open its circuit (None disables the breaker).
        breaker_cooldown: virtual seconds an open circuit waits before
            allowing a half-open probe.
        max_active: cap on concurrently *running* queries; arrivals
            beyond it wait in a FIFO pending queue (None = unbounded,
            the PR 9 processor-sharing behavior).
        queue_depth: bound on that pending queue; an arrival that finds
            it full is shed with :data:`SHED_QUEUE_FULL` (None =
            unbounded queue; only meaningful with ``max_active``).
        stretch_limit: predicted-stretch threshold — an arrival whose
            max-min-solved rate against the current active set predicts
            ``1/rate > stretch_limit`` is shed with
            :data:`SHED_STRETCH`.  The threshold is relative to the
            query's *solo* cost (stretch 1.0 = solo speed), so one
            knob covers cheap and expensive queries alike.
        default_deadline: latency budget (virtual seconds from arrival)
            stamped on requests submitted without an explicit deadline
            (None = no deadline).
    """

    retry: RetryPolicy = field(default_factory=lambda: DEFAULT_SERVING_RETRY)
    breaker_threshold: Optional[int] = None
    breaker_cooldown: float = math.inf
    max_active: Optional[int] = None
    queue_depth: Optional[int] = None
    stretch_limit: Optional[float] = None
    default_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_active is not None and self.max_active < 1:
            raise ValueError(f"max_active must be >= 1: {self.max_active}")
        if self.queue_depth is not None and self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0: {self.queue_depth}")
        # ``not x >= bound`` also rejects NaN, which every comparison in
        # the shedding and breaker paths would silently treat as False.
        if self.stretch_limit is not None and not self.stretch_limit >= 1.0:
            raise ValueError(
                f"stretch_limit must be >= 1 (1.0 = solo speed): "
                f"{self.stretch_limit}"
            )
        if not self.breaker_cooldown >= 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0: {self.breaker_cooldown}"
            )
        if self.default_deadline is not None and not (
            0 < self.default_deadline < math.inf
        ):
            raise ValueError(
                f"default_deadline must be finite and positive: "
                f"{self.default_deadline}"
            )
        if self.queue_depth is not None and self.max_active is None:
            raise ValueError(
                "queue_depth without max_active is meaningless: an "
                "unbounded active set never queues"
            )

    def build_breaker(self) -> CircuitBreaker:
        """A fresh breaker configured by this policy."""
        return CircuitBreaker(
            threshold=self.breaker_threshold, cooldown=self.breaker_cooldown
        )


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATES",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_SERVING_RETRY",
    "OUTCOMES",
    "OUTCOME_DEADLINE",
    "OUTCOME_FAILED",
    "OUTCOME_FINISHED",
    "SHED_QUEUE_FULL",
    "SHED_REASONS",
    "SHED_STRETCH",
    "ServicePolicy",
    "ShedError",
]
