"""Multi-way (star schema) joins — the Section 6.2 extension.

"Our strategy could be extended to multi-way joins (e.g., for a star
schema) by building hash tables on a different processor in parallel,
and then copying all hash tables to all processors."

A :class:`StarJoin` joins one fact relation against several dimension
relations on independent foreign keys.  Execution:

* **build** — each dimension's hash table is built by a processor
  (assigned round-robin over the workers; tables build in parallel),
  then every finished table is broadcast to each worker's local memory
  (GPU+Het generalized).
* **probe** — the fact relation streams through the workers via morsel
  dispatch; every fact tuple probes all dimension tables, and only
  tuples matching *every* dimension survive (conjunctive star query).

The functional layer computes the true survivor count and aggregate;
the performance layer prices k probes per tuple plus the broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel
from repro.core.hashtable import create_hash_table
from repro.core.join.nopa import JoinThroughput
from repro.data.relation import ColumnTable, Relation
from repro.exec import execute_build, execute_probe
from repro.hardware.processor import Gpu
from repro.hardware.topology import Machine
from repro.logical.algebra import Query, scan
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import StarStats
from repro.memory.allocator import OutOfMemoryError
from repro.obs import Observability
from repro.plan import PlanExecutor
from repro.utils.units import MIB


@dataclass(frozen=True)
class Dimension:
    """One dimension table plus the fact column that references it."""

    relation: Relation
    fact_key: str  # name of the fact key column referencing this table

    def __post_init__(self) -> None:
        if not self.fact_key:
            raise ValueError("dimension needs the fact key column name")


@dataclass
class StarJoinResult(JoinThroughput):
    """Functional result plus simulated performance."""

    survivors: int
    aggregate: int
    build_seconds: float
    broadcast_seconds: float
    probe_seconds: float
    modeled_tuples: int
    builder_of: Dict[str, str]
    workers: Tuple[str, ...]

    @property
    def runtime(self) -> float:
        return self.build_seconds + self.broadcast_seconds + self.probe_seconds


class StarJoin:
    """Join a fact relation against several dimensions (Section 6.2)."""

    def __init__(
        self,
        machine: Machine,
        calibration: Calibration = DEFAULT_CALIBRATION,
        hash_scheme: str = "perfect",
        gpu_reserve: int = 512 * MIB,
        obs: Optional[Observability] = None,
    ) -> None:
        self.machine = machine
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.hash_scheme = hash_scheme
        self.gpu_reserve = gpu_reserve

    # ------------------------------------------------------------------
    def _validate_capacity(
        self, dimensions: Sequence[Dimension], workers: Sequence[str]
    ) -> None:
        """All dimension tables (replicated) must fit every GPU worker."""
        total = sum(
            d.relation.modeled_tuples * d.relation.tuple_bytes
            for d in dimensions
        )
        for worker in workers:
            proc = self.machine.processor(worker)
            if isinstance(proc, Gpu):
                available = proc.local_memory.capacity - self.gpu_reserve
                if total > available:
                    raise OutOfMemoryError(
                        f"replicating {total} bytes of dimension tables "
                        f"exceeds {worker}'s memory; reduce dimensions or "
                        "use the Het strategy"
                    )

    def logical_query(
        self, fact: ColumnTable, dimensions: Sequence[Dimension]
    ) -> Query:
        """The star join as a logical plan: the fact scan probes one
        hash join per dimension (innermost first), then aggregates the
        first dimension's matched payloads over the survivors."""
        query = scan(fact)
        for dimension in dimensions:
            query = query.join(
                scan(dimension.relation, name=dimension.fact_key),
                build_key="key",
                probe_key=dimension.fact_key,
                selectivity=None,
                output_prefix=f"{dimension.fact_key}_",
            )
        payload = f"{dimensions[0].fact_key}_payload"
        return query.aggregate(star=(payload, "sum"))

    # ------------------------------------------------------------------
    def run(
        self,
        fact: Dict[str, np.ndarray],
        dimensions: Sequence[Dimension],
        measure: Optional[np.ndarray] = None,
        workers: Sequence[str] = ("cpu0", "gpu0"),
        modeled_fact: Optional[int] = None,
        fact_location: str = "cpu0-mem",
    ) -> StarJoinResult:
        """Execute the star join.

        Args:
            fact: fact-table foreign-key columns, keyed by name; every
                dimension's ``fact_key`` must be present.
            dimensions: the dimension tables.
            measure: optional fact measure column to aggregate over the
                surviving tuples (defaults to counting matched dimension
                payloads).
            modeled_fact: paper-scale fact cardinality (defaults to the
                executed row count).
        """
        if not dimensions:
            raise ValueError("star join needs at least one dimension")
        fact_table = ColumnTable("fact", fact, modeled_fact, fact_location)
        executed_fact = fact_table.executed_rows
        for dimension in dimensions:
            if dimension.fact_key not in fact:
                raise ValueError(
                    f"fact table lacks key column {dimension.fact_key!r}"
                )
        self._validate_capacity(dimensions, workers)

        # Functional execution: conjunctive probe with short-circuiting.
        alive = np.ones(executed_fact, dtype=bool)
        payload_sum = np.zeros(executed_fact, dtype=np.int64)
        survival_per_dim: List[float] = []
        for dimension in dimensions:
            rel = dimension.relation
            table = create_hash_table(
                self.hash_scheme, rel.executed_tuples, rel.key.dtype,
                rel.payload.dtype,
            )
            execute_build(table, rel.key, rel.payload)
            keys = fact[dimension.fact_key]
            found = np.zeros(executed_fact, dtype=bool)
            values = np.zeros(executed_fact, dtype=rel.payload.dtype)
            if alive.any():
                sub_found, sub_values = execute_probe(table, keys[alive])
                found[alive] = sub_found
                values_alive = np.zeros(int(alive.sum()), dtype=rel.payload.dtype)
                values_alive[sub_found] = sub_values[sub_found]
                values[alive] = values_alive
            before = int(alive.sum())
            alive &= found
            survival_per_dim.append(
                (int(alive.sum()) / before) if before else 0.0
            )
            payload_sum[alive] += values[alive].astype(np.int64)
        survivors = int(alive.sum())
        if measure is not None:
            aggregate = int(measure[alive].astype(np.int64).sum())
        else:
            aggregate = int(payload_sum[alive].sum())

        builder_of = {
            d.fact_key: workers[i % len(workers)]
            for i, d in enumerate(dimensions)
        }
        config = PhysicalConfig(
            strategy="gpu+het",
            workers=tuple(workers),
            hash_scheme=self.hash_scheme,
            label="star",
        )
        plan = compile_query(
            self.logical_query(fact_table, dimensions),
            config,
            self.cost_model,
            StarStats(tuple(survival_per_dim)),
        )
        executed = PlanExecutor(self.cost_model).execute(plan)
        modeled_tuples = fact_table.modeled_rows + sum(
            d.relation.modeled_tuples for d in dimensions
        )
        return StarJoinResult(
            survivors=survivors,
            aggregate=aggregate,
            build_seconds=executed.seconds("build"),
            broadcast_seconds=executed.seconds("broadcast"),
            probe_seconds=executed.seconds("probe"),
            modeled_tuples=modeled_tuples,
            builder_of=builder_of,
            workers=tuple(workers),
        )
