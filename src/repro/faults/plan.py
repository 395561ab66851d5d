"""Deterministic, seeded fault injection: rules, sites, and the plan.

A :class:`FaultPlan` is a declarative description of the faults one
chaos run should experience: *which* failures (worker crashes, transient
kernel errors, out-of-memory at an allocation ordinal, degraded
interconnect bandwidth), *where* (matched by worker name, allocation
label/region, transfer method), and *when* (a deterministic ordinal or a
seeded probability draw).

Determinism: probability draws are keyed by the *site identity* — e.g.
``(seed, rule, morsel start, attempt)`` hashed with BLAKE2b — not by a
shared RNG stream or by the worker that pulled the morsel, so whether a
given morsel faults does not depend on thread interleaving or on how
many other sites drew before it.  A rule's ``worker`` only filters
which receipts it sees; ordinal rules count receipts per worker by
design.  Ordinal counters are kept under one lock.

The plan is installed as a context manager::

    plan = FaultPlan(seed=7, rules=[TransientError(probability=0.2)])
    with plan.install():
        join.run(wl.r, wl.s)
    assert plan.injected  # every injection is recorded

Hook sites pay ~zero overhead when no plan is installed — see
:mod:`repro.faults.runtime`.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults.runtime import install_plan, uninstall_plan
from repro.memory.allocator import OutOfMemoryError


# ---------------------------------------------------------------------------
# Injected-fault exception types
# ---------------------------------------------------------------------------


class InjectedFault(Exception):
    """Base of every exception raised by an installed :class:`FaultPlan`.

    Recovery code keys on these types: anything *not* derived from
    InjectedFault is a genuine bug and propagates unchanged.
    """


class WorkerCrashFault(InjectedFault):
    """An injected worker death: the worker stops pulling morsels."""


class TransientKernelFault(InjectedFault):
    """An injected transient kernel failure: safe to retry in place."""


class InjectedOutOfMemoryError(InjectedFault, OutOfMemoryError):
    """An injected allocation failure (still an ``OutOfMemoryError``)."""


class QueryFault(InjectedFault):
    """An injected serving-level query failure (retryable by resubmit).

    Raised from the serving scheduler's phase-boundary fault hook; the
    :class:`~repro.serve.service.QueryService` turns it into a
    ``RetryPolicy``-governed resubmission or a terminal ``failed``
    outcome once the attempt budget is spent.
    """


# ---------------------------------------------------------------------------
# Declarative rules
# ---------------------------------------------------------------------------


def _check_probability(name: str, value: Optional[float]) -> None:
    if value is not None and not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1]: {value}")


def _check_times(times: Optional[int]) -> None:
    if times is not None and times < 1:
        raise ValueError(f"times must be at least 1 (or None for unlimited): {times}")


@dataclass(frozen=True)
class CrashWorker:
    """Kill a matching worker when it receives a morsel.

    The crash fires *before* the morsel's task runs — a crash-safe
    injection point: the range has no partial side effects and can be
    re-dispatched to a surviving worker.

    Args:
        worker: exact worker name to target, or None for any worker.
        ordinal: fire on the k-th (0-based) morsel receipt of a matching
            worker (ignored when ``probability`` is given).
        probability: instead of an ordinal, crash each matching receipt
            with this seeded probability.
        times: total number of crashes this rule may inject.
    """

    worker: Optional[str] = None
    ordinal: int = 0
    probability: Optional[float] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.ordinal < 0:
            raise ValueError(f"ordinal must be non-negative: {self.ordinal}")
        _check_probability("probability", self.probability)
        _check_times(self.times)


@dataclass(frozen=True)
class TransientError:
    """Raise a retryable :class:`TransientKernelFault` at morsel receipt.

    Args:
        probability: seeded per-(range, attempt) firing chance
            (ignored when ``ordinal`` is given).
        ordinal: fire on the k-th (0-based) matching morsel receipt.
        attempts: attempt numbers the rule may fire on.  The default
            ``(0,)`` makes the fault *recoverable by construction* — the
            first retry always succeeds.  ``None`` fires on every
            attempt (an unrecoverable rule once the budget is spent).
        times: total fires allowed (None = unlimited).
        worker: exact worker name to target, or None for any.
    """

    probability: float = 1.0
    ordinal: Optional[int] = None
    attempts: Optional[Tuple[int, ...]] = (0,)
    times: Optional[int] = 1
    worker: Optional[str] = None

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        if self.ordinal is not None and self.ordinal < 0:
            raise ValueError(f"ordinal must be non-negative: {self.ordinal}")
        _check_times(self.times)


@dataclass(frozen=True)
class OomAt:
    """Inject :class:`InjectedOutOfMemoryError` at an allocation site.

    Allocation sites are visited by :meth:`Allocator.alloc` and by the
    GPU-placement capacity check of ``place_hash_table`` (label
    ``"ht gpu placement"``); the plan numbers matching visits and fires
    at ``ordinal``.

    Args:
        ordinal: 0-based index among *matching* allocation sites.
        label: substring the allocation label must contain (None = any).
        region: exact memory-region name to match (None = any).
        times: total fires allowed.
    """

    ordinal: int = 0
    label: Optional[str] = None
    region: Optional[str] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.ordinal < 0:
            raise ValueError(f"ordinal must be non-negative: {self.ordinal}")
        _check_times(self.times)


@dataclass(frozen=True)
class DegradeLink:
    """Scale a transfer method's effective ingest bandwidth by ``factor``.

    Models a degraded interconnect (a contended or downtrained link);
    the cost model prices the run at the reduced bandwidth.  Unlike the
    exception-typed rules this one fires on *every* matching bandwidth
    query (``times=None``) so the degradation persists across phases.
    """

    factor: float = 0.5
    method: Optional[str] = None
    src_memory: Optional[str] = None
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"bandwidth factor must be in (0, 1]: {self.factor}"
            )
        _check_times(self.times)


@dataclass(frozen=True)
class FailQuery:
    """Fail a serving-level query at a phase boundary.

    Visited by the serving scheduler's fault hook when a query *enters*
    a phase (deterministic, zero machine time spent on the doomed
    phase).  The failure surfaces as :class:`QueryFault`; whether the
    query is resubmitted (with backoff) or terminally failed is the
    service's :class:`~repro.faults.recovery.RetryPolicy` decision.

    Args:
        workload: exact workload name to target (None = any).
        tenant: exact tenant name to target (None = any).
        probability: seeded per-(request, phase, attempt) firing chance.
        phase: only fire when entering this phase index (None = any).
        attempts: serving attempt numbers the rule may fire on.  The
            default ``(0,)`` makes the fault *recoverable by
            construction* — the first resubmission always succeeds.
            ``None`` fires on every attempt (drives a query through its
            whole retry budget into the circuit breaker).
        times: total fires allowed (None = unlimited).
    """

    workload: Optional[str] = None
    tenant: Optional[str] = None
    probability: float = 1.0
    phase: Optional[int] = None
    attempts: Optional[Tuple[int, ...]] = (0,)
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        _check_probability("probability", self.probability)
        if self.phase is not None and self.phase < 0:
            raise ValueError(f"phase must be non-negative: {self.phase}")
        _check_times(self.times)


FaultRule = Any  # union of the rule dataclasses above (py39-friendly)

_RULE_TYPES = (CrashWorker, TransientError, OomAt, DegradeLink, FailQuery)


# ---------------------------------------------------------------------------
# Injection records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: which rule fired, where, and the kind."""

    seq: int
    kind: str  # "crash" | "transient" | "oom" | "degraded_link"
    rule: str
    site: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "rule": self.rule,
            "site": dict(self.site),
        }


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class FaultPlan:
    """A seeded, declarative set of faults to inject into one run.

    Thread-safe: hook sites are visited concurrently by pool workers.
    Every injected fault is appended to :attr:`injected`, which the
    manifest's ``resilience`` section uses to account for the chaos a
    run experienced.
    """

    def __init__(
        self, seed: int, rules: Sequence[FaultRule], name: str = ""
    ) -> None:
        for rule in rules:
            if not isinstance(rule, _RULE_TYPES):
                raise TypeError(
                    f"unknown fault rule {rule!r}; valid rule types: "
                    + ", ".join(t.__name__ for t in _RULE_TYPES)
                )
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.name = name
        self.injected: List[FaultRecord] = []
        self._lock = threading.Lock()
        self._fires: Dict[int, int] = {}  # rule index -> total fires
        self._morsel_visits: Dict[Tuple[int, str], int] = {}
        self._alloc_visits: Dict[int, int] = {}
        # Per-site fast paths: a site whose rule class is absent from the
        # plan returns without taking the lock, so e.g. a link-only plan
        # costs the morsel hot loop nothing.
        self._has_morsel_rules = any(
            isinstance(r, (CrashWorker, TransientError)) for r in self.rules
        )
        self._has_alloc_rules = any(isinstance(r, OomAt) for r in self.rules)
        self._has_link_rules = any(isinstance(r, DegradeLink) for r in self.rules)
        self._has_query_rules = any(isinstance(r, FailQuery) for r in self.rules)
        #: (rule index, resource) pairs already recorded by
        #: :meth:`resource_factor` — the serving scheduler queries
        #: capacity at every resolve, so persistent degradation is
        #: recorded once per (rule, resource) instead of per query.
        self._degraded_resources: set = set()

    # -- deterministic randomness ---------------------------------------
    def uniform(self, *key: Any) -> float:
        """A deterministic uniform in [0, 1) keyed by the site identity."""
        payload = repr((self.seed,) + key).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    # -- bookkeeping -----------------------------------------------------
    def _spent(self, index: int, times: Optional[int]) -> bool:
        return times is not None and self._fires.get(index, 0) >= times

    def _record(self, index: int, kind: str, site: Dict[str, Any]) -> FaultRecord:
        self._fires[index] = self._fires.get(index, 0) + 1
        record = FaultRecord(
            seq=len(self.injected),
            kind=kind,
            rule=repr(self.rules[index]),
            site=site,
        )
        self.injected.append(record)
        return record

    # -- hook sites ------------------------------------------------------
    def check_morsel(self, worker: str, start: int, end: int, attempt: int) -> None:
        """Morsel-receipt site; may raise a crash or transient fault.

        Called by the executor *before* the morsel's task runs, so an
        injected fault never leaves partial side effects behind.
        """
        if not self._has_morsel_rules:
            return
        with self._lock:
            for index, rule in enumerate(self.rules):
                if isinstance(rule, CrashWorker):
                    if self._spent(index, rule.times):
                        continue
                    if rule.worker is not None and rule.worker != worker:
                        continue
                    if rule.probability is not None:
                        fire = (
                            self.uniform(index, "crash", start, attempt)
                            < rule.probability
                        )
                    else:
                        visits = self._morsel_visits.get((index, worker), 0)
                        self._morsel_visits[(index, worker)] = visits + 1
                        fire = visits == rule.ordinal
                    if fire:
                        site = {
                            "kind": "morsel",
                            "worker": worker,
                            "start": start,
                            "end": end,
                            "attempt": attempt,
                        }
                        self._record(index, "crash", site)
                        raise WorkerCrashFault(
                            f"injected crash of {worker} on morsel "
                            f"[{start}, {end}) attempt {attempt}"
                        )
                elif isinstance(rule, TransientError):
                    if self._spent(index, rule.times):
                        continue
                    if rule.worker is not None and rule.worker != worker:
                        continue
                    if rule.attempts is not None and attempt not in rule.attempts:
                        continue
                    if rule.ordinal is not None:
                        visits = self._morsel_visits.get((index, worker), 0)
                        self._morsel_visits[(index, worker)] = visits + 1
                        fire = visits == rule.ordinal
                    else:
                        fire = (
                            self.uniform(index, "transient", start, attempt)
                            < rule.probability
                        )
                    if fire:
                        site = {
                            "kind": "morsel",
                            "worker": worker,
                            "start": start,
                            "end": end,
                            "attempt": attempt,
                        }
                        self._record(index, "transient", site)
                        raise TransientKernelFault(
                            f"injected transient kernel fault on {worker} "
                            f"morsel [{start}, {end}) attempt {attempt}"
                        )

    def check_alloc(self, region: str, nbytes: int, label: str = "") -> None:
        """Allocation site; may raise :class:`InjectedOutOfMemoryError`."""
        if not self._has_alloc_rules:
            return
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not isinstance(rule, OomAt):
                    continue
                if self._spent(index, rule.times):
                    continue
                if rule.region is not None and rule.region != region:
                    continue
                if rule.label is not None and rule.label not in label:
                    continue
                visits = self._alloc_visits.get(index, 0)
                self._alloc_visits[index] = visits + 1
                if visits == rule.ordinal:
                    site = {
                        "kind": "alloc",
                        "region": region,
                        "nbytes": int(nbytes),
                        "label": label,
                    }
                    self._record(index, "oom", site)
                    raise InjectedOutOfMemoryError(
                        f"injected out-of-memory: {label or 'allocation'} of "
                        f"{nbytes} bytes in {region} (ordinal {visits})"
                    )

    def bandwidth_factor(
        self, method: str, processor: str, src_memory: str
    ) -> float:
        """Combined degradation factor for one transfer-bandwidth query."""
        if not self._has_link_rules:
            return 1.0
        factor = 1.0
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not isinstance(rule, DegradeLink):
                    continue
                if self._spent(index, rule.times):
                    continue
                if rule.method is not None and rule.method != method:
                    continue
                if rule.src_memory is not None and rule.src_memory != src_memory:
                    continue
                site = {
                    "kind": "link",
                    "method": method,
                    "processor": processor,
                    "src_memory": src_memory,
                    "factor": rule.factor,
                }
                self._record(index, "degraded_link", site)
                factor *= rule.factor
        return factor

    def check_query(
        self,
        workload: str,
        tenant: str,
        request_id: int,
        phase_index: int,
        attempt: int,
    ) -> None:
        """Serving phase-boundary site; may raise :class:`QueryFault`.

        Called by the serving scheduler's fault hook each time a query
        enters a (non-empty) phase; the draw is keyed by the full site
        identity, so whether one query faults never depends on what the
        rest of the mix did.
        """
        if not self._has_query_rules:
            return
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not isinstance(rule, FailQuery):
                    continue
                if self._spent(index, rule.times):
                    continue
                if rule.workload is not None and rule.workload != workload:
                    continue
                if rule.tenant is not None and rule.tenant != tenant:
                    continue
                if rule.phase is not None and rule.phase != phase_index:
                    continue
                if rule.attempts is not None and attempt not in rule.attempts:
                    continue
                fire = (
                    self.uniform(index, "query", request_id, phase_index, attempt)
                    < rule.probability
                )
                if fire:
                    site = {
                        "kind": "query",
                        "workload": workload,
                        "tenant": tenant,
                        "request_id": request_id,
                        "phase_index": phase_index,
                        "attempt": attempt,
                    }
                    self._record(index, "query", site)
                    raise QueryFault(
                        f"injected serving fault: request #{request_id} "
                        f"({workload}, tenant {tenant}) phase {phase_index} "
                        f"attempt {attempt}"
                    )

    def resource_factor(self, resource: str) -> float:
        """Capacity factor of one *simulated* resource under this plan.

        The serving scheduler queries this at every rate re-solve; a
        :class:`DegradeLink` rule with no transfer-method selector
        degrades the matching ``link:*`` resources of the contention
        model, so a mid-serving link degradation stretches every query
        crossing it through the same max-min re-solve that handles
        contention.  Rules with a ``method`` selector only apply to the
        cost-model pricing path (:meth:`bandwidth_factor`).
        """
        if not self._has_link_rules or not resource.startswith("link:"):
            return 1.0
        link_name = resource[len("link:") :]
        factor = 1.0
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not isinstance(rule, DegradeLink):
                    continue
                if rule.method is not None:
                    continue
                if self._spent(index, rule.times):
                    continue
                if (
                    rule.src_memory is not None
                    and rule.src_memory not in link_name
                ):
                    continue
                if (index, resource) not in self._degraded_resources:
                    self._degraded_resources.add((index, resource))
                    self._record(
                        index,
                        "degraded_link",
                        {
                            "kind": "resource",
                            "resource": resource,
                            "factor": rule.factor,
                        },
                    )
                factor *= rule.factor
        return factor

    # -- installation ----------------------------------------------------
    @contextmanager
    def install(self) -> Iterator["FaultPlan"]:
        """Activate the plan for the dynamic extent of the ``with`` block."""
        install_plan(self)
        try:
            yield self
        finally:
            uninstall_plan(self)

    # -- reporting -------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-ready plan descriptor for the manifest resilience section."""
        return {
            "seed": self.seed,
            "name": self.name,
            "rules": [repr(rule) for rule in self.rules],
        }

    def injected_counts(self) -> Dict[str, int]:
        """Number of injected faults per kind."""
        counts: Dict[str, int] = {}
        with self._lock:
            for record in self.injected:
                counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<FaultPlan{label} seed={self.seed} rules={len(self.rules)} "
            f"injected={len(self.injected)}>"
        )
