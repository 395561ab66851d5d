"""The five benchmark workloads: inputs, units of work, and output checks.

A workload is a list of *units* (one serve pass, one join, one figure). The
harness times each unit repeatedly; :meth:`Workload.check` verifies every
result outside the timed region and collects the facts that repeat exactly
for a seed (outcome counts, virtual-time results).  Everything here calls
``repro`` through public names only, and receives the seed only as
generated inputs.

Why each workload exists is in ``WHY`` (and ``perf/README.md``); the names
are fixed because later issues refer to them.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: relative slack on "a served query is never faster than solo".
STRETCH_SLACK = 1e-9

#: largest optimizer-vs-re-execution gap a cold plan may show.
PLAN_GAP_LIMIT = 1e-3

Unit = Tuple[str, Callable[[], Any]]


class Workload:
    """Base: bookkeeping shared by the five workloads."""

    name = ""
    #: what ``throughput_per_s`` counts on this workload.
    item = ""
    #: per-layer metric prefix under which each unit's own time is reported
    #: (the figure runners are layers of their own); None for no such metrics.
    unit_metric_prefix: Optional[str] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: why operations failed (first few, for the report).
        self.failures: List[str] = []
        #: per-pass facts that repeat exactly for a seed.
        self.counts: Dict[str, float] = {}
        self.virtual: Dict[str, float] = {}
        #: host seconds spent generating inputs in set-up.
        self.gen_seconds = 0.0
        #: digest of the first pass's outcome, where passes must repeat it.
        self.digest: Optional[str] = None

    def setup(self) -> None:
        """Generate the inputs from the seed."""

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed, verified run of every unit."""
        for name, run in self.units():
            self.check(name, run())

    def items_per_pass(self) -> float:
        """Work items one pass over all units completes."""
        raise NotImplementedError

    def check(self, unit: str, result: Any) -> None:
        raise NotImplementedError

    def tracer_importers(self) -> Tuple[str, ...]:
        """Modules whose by-name generator imports the tracer wraps."""
        return ()

    def _fail(self, operations: int, reason: str) -> None:
        self.failed += operations
        if len(self.failures) < 5:
            self.failures.append(reason)


# ----------------------------------------------------------------------
# serve_steady / serve_overload
# ----------------------------------------------------------------------
def serving_digest(report: Any) -> str:
    """sha256 over every request's (id, outcome, latency), sorted."""
    rows = [
        (q.request.request_id, q.outcome, repr(q.latency))
        for bucket in (report.served, report.deadline_exceeded, report.failed)
        for q in bucket
    ]
    rows += [(r.request.request_id, "rejected", "") for r in report.rejections]
    rows += [
        (s.request.request_id, f"shed:{s.reason}", repr(s.at)) for s in report.shed
    ]
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


class _Serving(Workload):
    """Open loop: virtual-time Poisson arrivals into one ``QueryService``."""

    item = "requests"
    machine = "ibm-ac922"
    mean_gap = 0.0
    mix: Tuple[str, ...] = ()
    tenants: Tuple[str, ...] = ()

    def __init__(self, seed: int, requests: int = 2000) -> None:
        super().__init__(seed)
        self.n_requests = requests
        self.requests: List[Tuple[str, str, float]] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(self.mean_gap, size=self.n_requests)
        picks = rng.integers(0, len(self.mix), size=self.n_requests)
        arrivals = np.cumsum(gaps)
        self.requests = [
            (
                self.tenants[i % len(self.tenants)],
                self.mix[int(picks[i])],
                float(arrivals[i]),
            )
            for i in range(self.n_requests)
        ]

    def build_service(self) -> Any:
        raise NotImplementedError

    def serve(self, service: Any) -> Any:
        return service.serve()

    def one_pass(self) -> Tuple[Any, Any]:
        service = self.build_service()
        for tenant, workload, arrival in self.requests:
            service.submit(tenant, workload, arrival)
        return service, self.serve(service)

    def units(self) -> List[Unit]:
        return [("pass", self.one_pass)]

    def items_per_pass(self) -> float:
        return float(len(self.requests))

    def check(self, unit: str, result: Any) -> None:
        from repro.serve import AdmissionAuditError, percentile

        service, report = result
        submitted = len(self.requests)
        self.attempted += submitted
        problems = []
        if not report.conservation(submitted):
            problems.append(
                f"conservation: {submitted} submitted, "
                f"outcomes {report.outcome_counts()}"
            )
        try:
            service.admission.audit()
        except AdmissionAuditError as error:
            problems.append(f"admission audit: {error}")
        fast = [
            q.request.request_id
            for q in report.served
            if q.solo_seconds > 0
            and q.latency / q.solo_seconds < 1.0 - STRETCH_SLACK
        ]
        if fast:
            problems.append(f"stretch below 1 for requests {fast[:5]}")
        digest = serving_digest(report)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("pass outcome differs from the first pass")
        if problems:
            self._fail(submitted, "; ".join(problems))

        outcomes = report.outcome_counts()
        self.counts = {
            "serve.cache_hits": report.cache["hits"],
            "serve.cache_misses": report.cache["misses"],
            "serve.peak_concurrency": report.peak_concurrency,
            "serve.finished": outcomes["finished"],
            "serve.shed": outcomes["shed"],
            "serve.deadline_exceeded": outcomes["deadline_exceeded"],
            "serve.failed": outcomes["failed"],
            "serve.rejected": outcomes["rejected"],
            "serve.retries": report.total_retries(),
        }
        latencies = report.latencies()
        self.virtual = {
            "virt_p50_latency_s": percentile(latencies, 0.5),
            "virt_p99_latency_s": percentile(latencies, 0.99),
            "virt_goodput_frac": outcomes["finished"] / submitted,
        }


class ServeSteady(_Serving):
    name = "serve_steady"
    mean_gap = 0.45
    mix = ("q6", "join-a", "join-b")
    tenants = ("alpha", "beta", "gamma")
    #: a tenant with a two-query in-flight quota bursting at t=0, so typed
    #: admission rejections happen on every pass.
    greedy_tenant = "zeta"
    greedy_burst = 8

    def setup(self) -> None:
        super().setup()
        self.requests += [(self.greedy_tenant, "join-b", 0.0)] * self.greedy_burst

    def build_service(self) -> Any:
        from repro.serve import QueryService, TenantQuota

        return QueryService(
            self.machine,
            quotas={self.greedy_tenant: TenantQuota(max_in_flight=2)},
        )


class ServeOverload(_Serving):
    name = "serve_overload"
    mean_gap = 0.30
    mix = ("q6", "join-a", "join-b", "join-sel", "star")
    tenants = ("alpha", "beta", "gamma", "delta")

    def build_service(self) -> Any:
        from repro.serve import QueryService, ServicePolicy, TenantQuota

        return QueryService(
            self.machine,
            quotas={"delta": TenantQuota(max_in_flight=1)},
            policy=ServicePolicy(
                max_active=8,
                queue_depth=16,
                stretch_limit=6.0,
                default_deadline=2.5,
                breaker_threshold=4,
                breaker_cooldown=3.0,
            ),
        )

    def serve(self, service: Any) -> Any:
        from repro.faults.plan import DegradeLink, FailQuery, FaultPlan

        # First-attempt faults recover through retry; join-sel also fails
        # on later attempts (0.15, so that a 2 000-request pass ends a few
        # queries in terminal failure on every seed); links run at 70 %.
        plan = FaultPlan(
            self.seed,
            rules=[
                FailQuery(probability=0.15, attempts=(0,), times=None),
                FailQuery(
                    workload="join-sel", probability=0.15, attempts=None, times=None
                ),
                DegradeLink(factor=0.7, times=None),
            ],
        )
        with plan.install():
            return service.serve()


# ----------------------------------------------------------------------
# plan_cold
# ----------------------------------------------------------------------
class PlanCold(Workload):
    """Closed loop, one client: every request misses the plan cache."""

    name = "plan_cold"
    item = "plans"
    #: ``star`` is typed-infeasible on the PCI-e machine.
    machines: Dict[str, Tuple[str, ...]] = {
        "ibm-ac922": ("q6", "join-a", "join-b", "join-sel", "star"),
        "intel-xeon-v100": ("q6", "join-a", "join-b", "join-sel"),
    }
    #: virtual seconds between requests: no two plans overlap.
    spacing = 10.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.orders: Dict[str, List[str]] = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.orders = {
            machine: [names[i] for i in rng.permutation(len(names))]
            for machine, names in self.machines.items()
        }

    def iteration(self) -> List[Any]:
        from repro.serve import QueryService

        reports = []
        for machine, order in self.orders.items():
            service = QueryService(machine)
            for i, workload in enumerate(order):
                service.submit("tenant", workload, self.spacing * i)
            reports.append(service.serve())
        return reports

    def units(self) -> List[Unit]:
        return [("iteration", self.iteration)]

    def items_per_pass(self) -> float:
        return float(sum(len(order) for order in self.orders.values()))

    def check(self, unit: str, result: Any) -> None:
        expected = int(self.items_per_pass())
        self.attempted += expected
        served = [query for report in result for query in report.served]
        if len(served) != expected:
            self._fail(
                expected - len(served),
                f"{len(served)} of {expected} plans were served",
            )
        gaps = []
        for query in served:
            results = query.manifest["results"]
            solo = results["solo_seconds"]
            if not (math.isfinite(solo) and solo > 0):
                self._fail(1, f"{query.request.workload}: solo seconds {solo}")
                continue
            gap = abs(results["predicted_seconds"] - solo) / solo
            gaps.append(gap)
            if not gap <= PLAN_GAP_LIMIT:
                self._fail(1, f"{query.request.workload}: plan gap {gap}")
        self.counts = {
            "serve.cache_misses": sum(r.cache["misses"] for r in result),
            "serve.cache_hits": sum(r.cache["hits"] for r in result),
            "serve.finished": sum(len(r.served) for r in result),
            "serve.peak_concurrency": max(r.peak_concurrency for r in result),
        }
        self.virtual = {"plan_gap_max": max(gaps) if gaps else 0.0}


# ----------------------------------------------------------------------
# join_exec
# ----------------------------------------------------------------------
class JoinExec(Workload):
    """The functional layer at host-memory scale: two NOPA joins."""

    name = "join_exec"
    item = "tuples"
    schemes = ("perfect", "open_addressing")

    def __init__(self, seed: int, scale: float = 2.0**-8) -> None:
        super().__init__(seed)
        self.scale = scale
        self.r: Any = None
        self.s: Any = None
        self.reference_matches = 0
        self.reference_aggregate = 0

    def setup(self) -> None:
        from repro.workloads.builders import workload_a

        start = time.perf_counter()
        workload = workload_a(scale=self.scale, seed=self.seed)
        self.gen_seconds = time.perf_counter() - start
        self.r, self.s = workload.r, workload.s
        # Reference answer in plain numpy: R's keys are a permutation of
        # 0..|R|-1, so the inverse permutation locates each probe's match.
        keys = self.r.key.astype(np.int64)
        position = np.empty(len(keys), dtype=np.int64)
        position[keys] = np.arange(len(keys))
        probe = self.s.key.astype(np.int64)
        hit = probe < len(keys)
        self.reference_matches = int(hit.sum())
        self.reference_aggregate = int(
            self.r.payload[position[probe[hit]]].astype(np.int64).sum()
        )

    def join(self, scheme: str) -> Any:
        from repro.core.join.nopa import NoPartitioningJoin
        from repro.hardware.topology import ibm_ac922

        return NoPartitioningJoin(
            ibm_ac922(),
            hash_table_placement="gpu",
            transfer_method="coherence",
            hash_scheme=scheme,
        ).run(self.r, self.s, processor="gpu0")

    def units(self) -> List[Unit]:
        return [(scheme, lambda scheme=scheme: self.join(scheme)) for scheme in self.schemes]

    def items_per_pass(self) -> float:
        return float(len(self.schemes) * (len(self.r.key) + len(self.s.key)))

    def check(self, unit: str, result: Any) -> None:
        self.attempted += 1
        if (
            result.matches != self.reference_matches
            or result.aggregate != self.reference_aggregate
        ):
            self._fail(
                1,
                f"{unit}: matches {result.matches} (reference "
                f"{self.reference_matches}), aggregate {result.aggregate} "
                f"(reference {self.reference_aggregate})",
            )


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
#: the calls of ``repro.bench.export.run_all_figures``: (module, function,
#: whether ``scale`` is passed).  The seeds are the runners' own.
FIGURE_RUNNERS: Tuple[Tuple[str, str, bool], ...] = (
    ("fig01_bandwidth", "run", False),
    ("fig03_microbench", "run", False),
    ("fig12_transfer_methods", "run", True),
    ("fig13_data_locality", "run", True),
    ("fig14_hashtable_locality", "run", True),
    ("fig15_tpch_q6", "run", False),
    ("fig16_probe_scaling", "run", False),
    ("fig17_build_scaling", "run", False),
    ("fig18_build_probe_ratio", "run", True),
    ("fig19_skew", "run", True),
    ("fig20_selectivity", "run", True),
    ("fig21_coprocessing", "run", True),
    ("ablations", "run_hybrid_vs_spill", False),
    ("multi_gpu", "run", True),
)


class Figures(Workload):
    """The paper-reproduction journey: 14 figure runners, one unit each."""

    name = "figures"
    item = "figures"
    unit_metric_prefix = "bench.fig_s."
    #: warm-up scale, passed to every runner that takes one: loads every
    #: code path at a fraction of the cost, so three set-ups per run stay
    #: affordable.
    warmup_scale = 2.0**-16

    def __init__(self, seed: int, scale: float = 2.0**-12) -> None:
        super().__init__(seed)  # figure seeds are internal: seed is unused
        self.scale = scale
        self.runners: Dict[str, Tuple[Callable[..., Any], bool]] = {}
        self.deviations: Dict[str, List[float]] = {}

    def setup(self) -> None:
        for module, function, scaled in FIGURE_RUNNERS:
            runner = getattr(
                importlib.import_module(f"repro.bench.{module}"), function
            )
            self.runners[module] = (runner, scaled)

    def run_figure(self, name: str, warm: bool = False) -> Any:
        runner, scaled = self.runners[name]
        try:
            if warm and "scale" in inspect.signature(runner).parameters:
                return runner(scale=self.warmup_scale)
            if scaled:
                return runner(scale=self.scale)
            return runner()
        except Exception:  # noqa: BLE001 - a raising runner is a failed figure
            return traceback.format_exc(limit=3)

    def units(self) -> List[Unit]:
        return [
            (name, lambda name=name: self.run_figure(name)) for name in self.runners
        ]

    def warmup(self) -> None:
        for name in self.runners:
            self.check(name, self.run_figure(name, warm=True))

    def items_per_pass(self) -> float:
        return float(len(self.runners))

    def tracer_importers(self) -> Tuple[str, ...]:
        return tuple(f"repro.bench.{module}" for module, _f, _s in FIGURE_RUNNERS)

    def check(self, unit: str, result: Any) -> None:
        self.attempted += 1
        if isinstance(result, str):
            self._fail(1, f"{unit} raised: {result}")
            return
        deviations = []
        for row in result.rows:
            for series, value in row.values.items():
                if not math.isfinite(value):
                    self._fail(1, f"{unit}: cell ({row.label}, {series}) is {value}")
                    return
                paper = result.paper_value(row.label, series)
                if paper is not None:
                    deviations.append(abs(value - paper) / abs(paper))
        # The warm-up's reduced-scale cells are overwritten by the first
        # timed pass, which runs every figure.
        self.deviations[unit] = deviations
        cells = [d for figure in self.deviations.values() for d in figure]
        self.virtual = {
            "paper_dev_mean": sum(cells) / len(cells) if cells else 0.0,
            "paper_anchors": float(len(cells)),
        }


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls
    for cls in (ServeSteady, ServeOverload, PlanCold, JoinExec, Figures)
}

WHY: Dict[str, str] = {
    "serve_steady": (
        "open loop at 0.8 utilisation, 3 plan-cache misses in 2008 requests: "
        "serve front door, scheduler and solver do the work, planning none"
    ),
    "serve_overload": (
        "same layers under deadlines, retries, shedding, breaker, quota and "
        "degraded links: the scheduler's cancellation and retry paths"
    ),
    "plan_cold": (
        "closed loop, fresh service per request set so every plan misses the "
        "cache: optimizer, lowering, executor, cost model, manifest assembly"
    ),
    "join_exec": (
        "two NOPA joins of 2^19 x 2^23 tuples: hash-table and exec numpy "
        "kernels dominate, pricing under 1 percent, no serving"
    ),
    "figures": (
        "the 14 figure runners at 2^15-tuple scale: per-call facade, generator "
        "and pricing overhead, and the only workload with paper accuracy"
    ),
}
