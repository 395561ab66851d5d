"""The no-partitioning hash join (NOPA) on the simulated machine.

The operator (Sections 2.1 and 5):

* **build** — populate the hash table with the inner relation R,
* **probe** — look every outer tuple of S up and aggregate matches.

The functional layer executes the join on real numpy columns; the
measured traffic (scaled to the modeled cardinality) is priced by the
cost model with the configured transfer method and hash-table placement:

* placement ``gpu``  — the non-scalable fast path (Figure 6b),
* placement ``cpu``  — build-side scalable, spilled table (Figure 7a),
* placement ``hybrid`` — the hybrid hash table (Figures 7b and 8),
* any region name — the locality experiments (Figures 13 and 14).

``run`` is :meth:`~NoPartitioningJoin.execute` then
:meth:`~NoPartitioningJoin.price`; a sweep that prices one input under
many configurations executes it once and prices each.
:func:`execute_join` is the build and probe of every hash-join facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.hashtable import create_hash_table
from repro.core.hashtable.base import HashTableBase
from repro.core.hashtable.placement import HashTablePlacement, place_hash_table
from repro.core.ops.selection import line_fraction
from repro.data.relation import Column, Relation, check_same_columns
from repro.exec import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    MorselExecutor,
    check_backend,
    exec_tier,
    execute_build,
    execute_probe,
    make_executor,
)
from repro.faults.recovery import RetryPolicy
from repro.faults.resilience import ResilienceLog
from repro.hardware.cache import HotSetProfile
from repro.hardware.processor import Gpu
from repro.hardware.topology import Machine
from repro.logical.algebra import Query, scan
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import JoinStats, TableProfile
from repro.memory.allocator import OutOfMemoryError
from repro.obs import Observability
from repro.plan import Plan, PlanExecutor
from repro.utils.units import LINE_BYTES, MIB


def payload_line_fraction(match_mask: np.ndarray, payload_bytes: int) -> float:
    """Fraction of payload-column cache lines with at least one match.

    The probe loads a payload value only for matching tuples; at 128-byte
    line granularity a line is transferred when *any* of its entries
    matches (Section 7.2.9: "at 10% selectivity, 81.5% of values are
    loaded").
    """
    per_line = max(1, LINE_BYTES // payload_bytes)
    return line_fraction(match_mask, per_line)


def join_query(r: Relation, s: Relation) -> Query:
    """The two-relation join every join facade states: S probes a hash
    table built from R, and the matched build payloads are summed."""
    return (
        scan(s)
        .join(scan(r), build_key="key", probe_key="key")
        .aggregate(agg=("build_payload", "sum"))
    )


def join_columns(r: Relation, s: Relation) -> Dict[str, Column]:
    """The columns a join of ``r`` and ``s`` reads, as the relations hold
    them, keyed ``R.key`` .. ``S.payload``."""
    return {
        f"{side}.{name}": column
        for side, relation in (("R", r), ("S", s))
        for name, column in relation.columns().items()
    }


@dataclass(frozen=True)
class JoinExecution:
    """What one functional hash-join execution leaves for pricing.

    It holds the built table, the probe's scalars and (for the
    ``materialize`` output) its result rows, not the probe's row-sized
    masks; one execution can be priced under any join facade, machine,
    transfer method and placement.  ``hash_scheme`` and ``output`` are
    those it ran with, and ``columns`` the column objects it read; every
    ``price`` checks them (:func:`check_execution`).  ``resilience``
    holds its recovery events, which ``NoPartitioningJoin.price`` copies
    into ``last_resilience``.
    """

    table: HashTableBase
    matches: int
    aggregate: int
    payload_lines_loaded: float
    materialized: Optional[Dict[str, np.ndarray]]
    hash_scheme: str
    output: str
    columns: Dict[str, Column]
    resilience: ResilienceLog


def execute_join(
    r: Relation,
    s: Relation,
    hash_scheme: str,
    backend: Optional[str] = None,
    workers: int = DEFAULT_WORKERS,
    exec_morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    name: str = "nopa",
    output: str = "aggregate",
    retry_policy: Optional[RetryPolicy] = None,
    resilience: Optional[ResilienceLog] = None,
) -> Tuple[JoinExecution, Optional[MorselExecutor]]:
    """Build a ``hash_scheme`` table from ``r`` and probe it with ``s`` on
    the real columns; return the execution and its executor (``None``
    when serial).  ``backend`` ``None`` runs the host tier of the probe
    rows, threads capped at the usable CPUs.  Recovery events go to
    ``resilience`` (a fresh log when ``None``)."""
    table = create_hash_table(
        hash_scheme, r.executed_tuples, r.key.dtype, r.payload.dtype
    )
    resilience = resilience if resilience is not None else ResilienceLog()
    tier_backend, tier_workers = exec_tier(backend, workers, len(s.key))
    executor = make_executor(
        tier_backend,
        tier_workers,
        exec_morsel_tuples,
        name=name,
        retry=retry_policy,
        resilience=resilience,
        cap_workers=backend is None,
    )
    execute_build(table, r.key, r.payload, executor)
    found, values = execute_probe(table, s.key, executor)
    materialized = None
    if output == "materialize":
        materialized = {
            "key": s.key[found],
            "s_payload": s.payload[found],
            "r_payload": values[found],
        }
    execution = JoinExecution(
        table=table,
        matches=int(np.count_nonzero(found)),
        # The probe zeroes ``values`` at every miss, so the unmasked sum
        # is the sum over matches (integer sums are exact in any order).
        aggregate=int(values.sum(dtype=np.int64)),
        payload_lines_loaded=payload_line_fraction(found, s.payload_bytes),
        materialized=materialized,
        hash_scheme=hash_scheme,
        output=output,
        columns=join_columns(r, s),
        resilience=resilience,
    )
    return execution, executor


def check_execution(
    execution: JoinExecution,
    join: object,
    r: Relation,
    s: Relation,
    knobs: Tuple[str, ...] = ("hash_scheme",),
) -> None:
    """Raise ``ValueError`` if ``execution`` differs from ``join`` in one
    of ``knobs`` or read other columns than ``r`` and ``s`` hold."""
    for name in knobs:
        if getattr(execution, name) != getattr(join, name):
            raise ValueError(
                f"the execution's {name} is {getattr(execution, name)!r}, "
                f"this join's is {getattr(join, name)!r}"
            )
    check_same_columns(execution.columns, join_columns(r, s))


class JoinThroughput:
    """The throughput of a join result from its modeled cardinality and
    simulated runtime."""

    modeled_tuples: int

    @property
    def runtime(self) -> float:
        """Simulated end-to-end seconds at modeled (paper) scale."""
        raise NotImplementedError

    @property
    def throughput_tuples(self) -> float:
        """(|R| + |S|) / runtime — the paper's throughput metric."""
        if self.runtime == 0:
            return float("inf")
        return self.modeled_tuples / self.runtime

    @property
    def throughput_gtuples(self) -> float:
        """:attr:`throughput_tuples` in billions of tuples per second."""
        return self.throughput_tuples / 1e9


@dataclass
class JoinResult(JoinThroughput):
    """Functional result plus simulated performance of one join."""

    matches: int
    aggregate: int
    build_cost: PhaseCost
    probe_cost: PhaseCost
    modeled_tuples: int
    placement: HashTablePlacement
    payload_lines_loaded: float
    table_stats_probe_factor: float
    processor: str
    materialized: Optional[Dict[str, "np.ndarray"]] = None

    @property
    def runtime(self) -> float:
        """Simulated end-to-end seconds at modeled (paper) scale."""
        return self.build_cost.seconds + self.probe_cost.seconds

    @property
    def build_fraction(self) -> float:
        """Share of runtime spent in the build phase (Figure 18b)."""
        if self.runtime == 0:
            return 0.0
        return self.build_cost.seconds / self.runtime

    def __str__(self) -> str:
        return (
            f"JoinResult({self.matches} matches, "
            f"{self.throughput_gtuples:.2f} G Tuples/s on {self.processor})"
        )


class NoPartitioningJoin:
    """Configurable NOPA join operator.

    Args:
        machine: the simulated machine.
        hash_table_placement: ``gpu`` | ``cpu`` | ``hybrid`` | region name.
        transfer_method: Table 1 method used by a GPU to reach CPU-memory
            relations; ignored for CPU execution and local data.
        hash_scheme: ``perfect`` (paper default) | ``open_addressing`` |
            ``chaining``.
        layout: ``soa`` (paper default; separate key/value arrays, value
            traffic only on matches — Figure 20) or ``aos`` (interleaved
            entries; every probe pulls the full entry).
        output: ``aggregate`` (paper default: the probe emits a running
            sum) or ``materialize`` (write <probe payload, build payload>
            result tuples to the processor's local memory — Section 5.1:
            "emit the join result (i.e., an aggregate or a
            materialization)").
        calibration: cost-model constants.
        gpu_reserve: GPU bytes kept free when placing the table.
        backend: how the *functional* execution runs — ``None`` (the
            default: the host tier of the probe rows,
            :func:`repro.exec.host_tier`, with its threads capped at the
            CPUs the process may use), ``serial`` (one thread) or
            ``threads`` (morsel-parallel via ``repro.exec``).  Results,
            ``TableStats``, and everything priced from them are
            identical across backends; only wall-clock behaviour
            differs.
        workers: worker count for the ``threads`` backend.
        exec_morsel_tuples: executed-tuple morsel size for the
            ``threads`` backend's dispatcher.
        oom_policy: what to do when the ``gpu`` placement cannot fit the
            table — ``raise`` (the paper's pre-NVLink scalability cliff,
            the default) or ``spill`` (degrade gracefully to the hybrid
            GPU-first/CPU-spill placement of Section 5.3 / Figure 8).
        retry_policy: bounded retry/backoff for transient morsel faults
            in the thread backend (None uses the executor default).
    """

    def __init__(
        self,
        machine: Machine,
        hash_table_placement: str = "gpu",
        transfer_method: str = "coherence",
        hash_scheme: str = "perfect",
        calibration: Calibration = DEFAULT_CALIBRATION,
        gpu_reserve: int = 512 * MIB,
        gpu_name: str = "gpu0",
        layout: str = "soa",
        output: str = "aggregate",
        obs: Optional[Observability] = None,
        backend: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        exec_morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
        oom_policy: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if layout not in ("soa", "aos"):
            raise ValueError(f"layout must be 'soa' or 'aos', got {layout!r}")
        if output not in ("aggregate", "materialize"):
            raise ValueError(
                f"output must be 'aggregate' or 'materialize', got {output!r}"
            )
        if oom_policy not in ("raise", "spill"):
            raise ValueError(
                f"oom_policy must be 'raise' or 'spill', got {oom_policy!r}"
            )
        self.machine = machine
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.hash_table_placement = hash_table_placement
        self.transfer_method = transfer_method
        self.hash_scheme = hash_scheme
        self.gpu_reserve = gpu_reserve
        self.gpu_name = gpu_name
        self.layout = layout
        self.output = output
        self.backend = None if backend is None else check_backend(backend)
        self.workers = workers
        self.exec_morsel_tuples = exec_morsel_tuples
        self.oom_policy = oom_policy
        self.retry_policy = retry_policy
        #: the executor of the most recent run (None for serial) — its
        #: metrics/timeline expose worker-level dispatch for inspection.
        self.last_executor = None
        #: recovery audit of the most recent run: retries, re-dispatches,
        #: serial fallbacks, and placement spills land here.  Feed its
        #: ``section()`` to ``build_manifest(resilience=...)`` for chaos
        #: manifests; it stays empty for fault-free runs.
        self.last_resilience = ResilienceLog()

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def execute(self, r: Relation, s: Relation) -> JoinExecution:
        """Build the hash table from ``r`` and probe it with ``s`` on the
        real columns.  Nothing here depends on the machine, placement or
        transfer method, so one execution serves every :meth:`price`."""
        self.last_resilience = ResilienceLog()
        execution, self.last_executor = execute_join(
            r, s, self.hash_scheme, self.backend, self.workers,
            self.exec_morsel_tuples, output=self.output,
            retry_policy=self.retry_policy, resilience=self.last_resilience,
        )
        return execution

    # ------------------------------------------------------------------
    # Placement and plan compilation
    # ------------------------------------------------------------------
    def _resolve_placement(
        self,
        table: HashTableBase,
        r: Relation,
        processor: str,
        strategy: Optional[str] = None,
    ) -> HashTablePlacement:
        modeled_bytes = table.modeled_bytes(r.modeled_tuples)
        strategy = strategy if strategy is not None else self.hash_table_placement
        proc = self.machine.processor(processor)
        if not isinstance(proc, Gpu) and strategy in ("gpu", "hybrid"):
            # A CPU-only join keeps its table in local CPU memory.
            return HashTablePlacement(
                total_bytes=modeled_bytes,
                fractions={proc.local_memory.name: 1.0},
                label="cpu-local",
            )
        return place_hash_table(
            self.machine,
            modeled_bytes,
            strategy,
            gpu_name=processor if isinstance(proc, Gpu) else self.gpu_name,
            gpu_reserve=self.gpu_reserve,
        )

    def _physical_config(
        self, processor: str, placement: HashTablePlacement, probe_rows: int
    ) -> PhysicalConfig:
        backend, workers = exec_tier(self.backend, self.workers, probe_rows)
        return PhysicalConfig(
            strategy="single",
            processor=processor,
            transfer_method=self.transfer_method,
            placement=placement,
            layout=self.layout,
            output=self.output,
            backend=backend,
            exec_workers=workers,
            hash_scheme=self.hash_scheme,
            label="nopa",
        )

    def logical_query(self, r: Relation, s: Relation) -> Query:
        """The join as a logical plan (S probes a table built from R)."""
        return join_query(r, s)

    def compile_plan(
        self,
        r: Relation,
        s: Relation,
        processor: str,
        table: HashTableBase,
        placement: HashTablePlacement,
        lines_loaded: float,
        hot_set: Optional[HotSetProfile] = None,
        matches: int = 0,
    ) -> Plan:
        """Compile the two-phase NOPA sequence (build, then probe) by lowering
        the logical join through :func:`repro.logical.compile_query`."""
        return compile_query(
            self.logical_query(r, s),
            self._physical_config(processor, placement, len(s.key)),
            self.cost_model,
            JoinStats(
                table=TableProfile.from_table(table, r.modeled_tuples),
                lines_loaded=lines_loaded,
                matches=matches,
                model_factor=s.model_factor,
                hot_set=hot_set,
            ),
        )

    def _place_with_oom_policy(
        self, table: HashTableBase, r: Relation, processor: str
    ) -> HashTablePlacement:
        """Resolve the placement, degrading to hybrid on build-side OOM.

        This is the operator-level graceful degradation of Section 5.3 /
        Figure 8: when ``oom_policy="spill"`` and the requested placement
        cannot fit the build side in GPU memory, the join falls back to
        the hybrid hash table (GPU-first, CPU-spill) instead of failing,
        and records the decision as a ``spill`` resilience event.
        """
        try:
            return self._resolve_placement(table, r, processor)
        except OutOfMemoryError as exc:
            if self.oom_policy != "spill" or self.hash_table_placement == "hybrid":
                raise
            placement = self._resolve_placement(
                table, r, processor, strategy="hybrid"
            )
            self.last_resilience.record(
                "spill",
                phase="placement",
                from_strategy=self.hash_table_placement,
                to_strategy="hybrid",
                reason=str(exc),
                fractions=dict(placement.fractions),
            )
            return placement

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(
        self,
        r: Relation,
        s: Relation,
        processor: str = "gpu0",
        hot_set: Optional[HotSetProfile] = None,
        placement_fractions: Optional[Dict[str, float]] = None,
    ) -> JoinResult:
        """Execute the join functionally and price it on the machine."""
        return self.price(
            self.execute(r, s), r, s, processor, hot_set, placement_fractions
        )

    def price(
        self,
        execution: JoinExecution,
        r: Relation,
        s: Relation,
        processor: str = "gpu0",
        hot_set: Optional[HotSetProfile] = None,
        placement_fractions: Optional[Dict[str, float]] = None,
    ) -> JoinResult:
        """Place, compile and price one execution of ``r`` ⋈ ``s``.

        ``placement_fractions`` overrides the placement strategy with an
        explicit region->fraction split (Figure 19 sweeps the hybrid
        table's GPU/CPU ratio directly).  ``last_resilience`` becomes the
        execution's recovery events plus any placement spill.

        Raises:
            ValueError: if ``execution`` was made with another hash
                scheme or output mode, or from other columns than ``r``
                and ``s`` hold.
        """
        check_execution(execution, self, r, s, ("hash_scheme", "output"))
        self.last_resilience = execution.resilience.copy()
        table = execution.table
        if placement_fractions is not None:
            unknown = [
                name
                for name in placement_fractions
                if name not in self.machine.memories
            ]
            if unknown:
                valid = ", ".join(sorted(self.machine.memories))
                raise ValueError(
                    f"placement_fractions references unknown memory "
                    f"region(s) {unknown}; valid regions on "
                    f"{self.machine.name}: {valid}"
                )
            placement = HashTablePlacement(
                total_bytes=table.modeled_bytes(r.modeled_tuples),
                fractions=dict(placement_fractions),
                label="explicit",
            )
        else:
            placement = self._place_with_oom_policy(table, r, processor)
        plan = self.compile_plan(
            r, s, processor, table, placement,
            execution.payload_lines_loaded, hot_set,
            matches=execution.matches,
        )
        executed = PlanExecutor(self.cost_model).execute(plan)
        return JoinResult(
            matches=execution.matches,
            aggregate=execution.aggregate,
            build_cost=executed.cost("build"),
            probe_cost=executed.cost("probe"),
            modeled_tuples=r.modeled_tuples + s.modeled_tuples,
            placement=placement,
            payload_lines_loaded=execution.payload_lines_loaded,
            table_stats_probe_factor=table.stats.probe_factor,
            processor=processor,
            materialized=execution.materialized,
        )
