"""Cooperative CPU+GPU join execution (Section 6).

Two strategies on top of the NOPA join:

* **Het** — one globally shared hash table in CPU memory; CPU and GPU
  build it together (contended atomics over the coherent interconnect)
  and probe it together via morsel-driven scheduling (Figure 9a).
* **GPU+Het** — for small build sides: one processor (the GPU) builds
  the table in its local memory, the finished table is copied to every
  other processor's local memory, and all processors probe their local
  copy (Figure 9b).

Per-worker throughputs come from the shared-resource solver (CPU cores
and the GPU compete for CPU-memory bandwidth); the probe phase then runs
as a discrete-event simulation of the morsel dispatcher — one morsel at
a time for CPU workers, latency-amortizing batches for GPUs — which
adds the end-of-input skew and batching effects of Section 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.data.relation import Relation
from repro.exec import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    check_backend,
    exec_tier,
)
from repro.hardware.cache import HotSetProfile
from repro.hardware.processor import Gpu
from repro.hardware.topology import Machine
from repro.core.join.nopa import (
    JoinExecution,
    JoinThroughput,
    check_execution,
    execute_join,
    join_query,
)
from repro.logical.algebra import Query
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import JoinStats, TableProfile
from repro.obs import Observability
from repro.obs.trace import Timeline
from repro.plan import PhaseOutcome, PlanExecutor

STRATEGIES = ("het", "gpu+het")


@dataclass
class CoopResult(JoinThroughput):
    """Functional result plus simulated performance of a cooperative join."""

    matches: int
    aggregate: int
    strategy: str
    modeled_tuples: int
    worker_rates: Dict[str, float]
    worker_shares: Dict[str, float]
    workers: Tuple[str, ...]
    #: aggregate per-phase costs (occupancy summed across workers at
    #: their solved shares) — the same shape single-processor joins
    #: report, so run manifests can treat both uniformly.
    build_cost: PhaseCost
    probe_cost: PhaseCost
    #: the executed probe phase; :attr:`timeline` is built from its grants.
    probe_outcome: PhaseOutcome = field(repr=False, compare=False)

    @property
    def build_seconds(self) -> float:
        return self.build_cost.seconds

    @property
    def probe_seconds(self) -> float:
        return self.probe_cost.seconds

    @property
    def timeline(self) -> Timeline:
        """The probe's per-worker morsel timeline, built on first read."""
        timeline = self.probe_outcome.timeline
        assert timeline is not None  # a morsel phase records its grants
        return timeline

    @property
    def runtime(self) -> float:
        return self.build_seconds + self.probe_seconds

    def __str__(self) -> str:
        return (
            f"CoopResult({self.strategy}: {self.throughput_gtuples:.2f} "
            f"G Tuples/s, workers={self.workers})"
        )


class CoopJoin:
    """Cooperative NOPA join across heterogeneous processors.

    Args:
        machine: the simulated machine (must have a coherent GPU link for
            the shared-table Het strategy).
        strategy: ``het`` or ``gpu+het``.
        morsel_tuples: dispatcher morsel size (modeled tuples) of the
            *simulated* probe-phase dispatcher.
        gpu_batch_morsels: morsels per GPU batch; ``None`` auto-tunes.
        backend: ``None`` | ``serial`` | ``threads`` — how the
            functional build and probe execute on the host; ``None``
            (the default) runs the host tier of the probe rows
            (:func:`repro.exec.host_tier`) with its threads capped at
            the CPUs the process may use.  Results and TableStats are
            identical across backends; the simulated Het schedule is
            priced from the same counters regardless.
        exec_workers: thread count for ``backend="threads"``.
        exec_morsel_tuples: *executed*-tuple morsel size for the thread
            backend (unrelated to the modeled ``morsel_tuples``).
    """

    def __init__(
        self,
        machine: Machine,
        strategy: str = "het",
        calibration: Calibration = DEFAULT_CALIBRATION,
        morsel_tuples: int = 1 << 22,
        gpu_batch_morsels: Optional[int] = None,
        hash_scheme: str = "perfect",
        obs: Optional[Observability] = None,
        backend: Optional[str] = None,
        exec_workers: int = DEFAULT_WORKERS,
        exec_morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}"
            )
        self.machine = machine
        self.strategy = strategy
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.morsel_tuples = morsel_tuples
        self.gpu_batch_morsels = gpu_batch_morsels
        self.hash_scheme = hash_scheme
        self.backend = None if backend is None else check_backend(backend)
        self.exec_workers = exec_workers
        self.exec_morsel_tuples = exec_morsel_tuples
        self.last_executor = None

    def logical_query(self, r: Relation, s: Relation) -> Query:
        """The join as a logical plan (S probes a table built from R)."""
        return join_query(r, s)

    def _check_workers(self, workers: Tuple[str, ...]) -> None:
        """Refuse workers this strategy cannot run on: none, an unknown
        processor, or Het over a link without system-wide atomics."""
        if not workers:
            raise ValueError("need at least one worker")
        for worker in workers:
            self.machine.processor(worker)  # validate names early
        if self.strategy == "het" and len(workers) > 1:
            # A shared *mutable* hash table needs system-wide atomics,
            # which only cache-coherent interconnects provide (L3 /
            # Section 3: PCI-e lacks them).
            for worker in workers:
                if not isinstance(self.machine.processor(worker), Gpu):
                    continue
                link = self.machine.gpu_link(worker)
                if not link.spec.cache_coherent:
                    raise ValueError(
                        f"the Het strategy shares a mutable hash table and "
                        f"requires a cache-coherent interconnect; {worker}'s "
                        f"{link.spec.name} is not coherent — use 'gpu+het' "
                        "or single-processor execution"
                    )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, r: Relation, s: Relation) -> JoinExecution:
        """Build one shared table from ``r`` and probe it with ``s`` on
        the real columns.  Nothing here depends on the strategy, workers
        or machine, so one execution serves every :meth:`price`."""
        execution, self.last_executor = execute_join(
            r, s, self.hash_scheme, self.backend, self.exec_workers,
            self.exec_morsel_tuples, name="coop",
        )
        return execution

    def run(
        self,
        r: Relation,
        s: Relation,
        workers: Tuple[str, ...] = ("cpu0", "gpu0"),
        hot_set: Optional[HotSetProfile] = None,
    ) -> CoopResult:
        """Execute the cooperative join and price it on the machine."""
        self._check_workers(workers)
        return self.price(self.execute(r, s), r, s, workers, hot_set)

    def price(
        self,
        execution: JoinExecution,
        r: Relation,
        s: Relation,
        workers: Tuple[str, ...] = ("cpu0", "gpu0"),
        hot_set: Optional[HotSetProfile] = None,
    ) -> CoopResult:
        """Compile and price one execution of ``r`` ⋈ ``s`` as this
        strategy over ``workers``; ``ValueError`` for an execution of
        another hash scheme or other columns (:func:`check_execution`)."""
        check_execution(execution, self, r, s)
        self._check_workers(workers)
        stats = JoinStats(
            table=TableProfile.from_table(execution.table, r.modeled_tuples),
            lines_loaded=execution.payload_lines_loaded,
            matches=execution.matches,
            hot_set=hot_set,
        )
        backend, exec_workers = exec_tier(self.backend, self.exec_workers, len(s.key))
        config = PhysicalConfig(
            strategy=self.strategy,
            workers=tuple(workers),
            morsel_tuples=self.morsel_tuples,
            gpu_batch_morsels=self.gpu_batch_morsels,
            backend=backend,
            exec_workers=exec_workers,
            hash_scheme=self.hash_scheme,
            label="coop",
        )
        plan = compile_query(
            self.logical_query(r, s), config, self.cost_model, stats
        )
        executed = PlanExecutor(self.cost_model).execute(plan)
        build_out = executed.outcomes["build"]
        probe_out = executed.outcomes["probe"]
        return CoopResult(
            matches=execution.matches,
            aggregate=execution.aggregate,
            strategy=self.strategy,
            modeled_tuples=r.modeled_tuples + s.modeled_tuples,
            worker_rates=probe_out.rates,
            worker_shares=probe_out.shares,
            workers=tuple(workers),
            build_cost=build_out.cost,
            probe_cost=probe_out.cost,
            probe_outcome=probe_out,
        )
