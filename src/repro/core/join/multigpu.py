"""Multi-GPU hash-table placement and execution (Section 6.3).

"Systems with multiple GPUs are connected in a mesh topology similar to
multi-socket CPU systems.  For small hash tables, we can use the
GPU+Het execution strategy with multiple GPUs.  However, for large hash
tables, multi-GPU systems can distribute the hash table over multiple
GPUs, as GPUs are latency insensitive.  We distribute the table by
interleaving the pages over all GPUs."

Two placements:

* ``replicated`` — every GPU holds its own copy of a small table (one
  GPU builds, the copy is broadcast); each GPU probes locally.
* ``interleaved`` — the table's pages are dealt round-robin over all
  GPU memories; each GPU's probes hit every GPU's memory uniformly,
  exploiting the full bidirectional bandwidth of the fast interconnect.

The paper describes this strategy without a dedicated experiment; the
bench in :mod:`repro.bench.multi_gpu` explores it as an extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel
from repro.core.hashtable.placement import HashTablePlacement
from repro.core.join.nopa import (
    JoinExecution,
    JoinThroughput,
    check_execution,
    execute_join,
    join_query,
)
from repro.data.relation import Relation
from repro.exec import host_tier
from repro.hardware.processor import Gpu
from repro.hardware.topology import Machine
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import JoinStats, TableProfile
from repro.memory.allocator import Allocator, OutOfMemoryError
from repro.memory.hybrid import allocate_interleaved
from repro.obs import Observability
from repro.plan import PlanExecutor

PLACEMENTS = ("replicated", "interleaved")


@dataclass
class MultiGpuResult(JoinThroughput):
    """Functional result plus simulated performance."""

    matches: int
    aggregate: int
    placement: str
    build_seconds: float
    probe_seconds: float
    modeled_tuples: int
    gpu_rates: Dict[str, float]
    table_bytes_per_gpu: Dict[str, int]

    @property
    def runtime(self) -> float:
        return self.build_seconds + self.probe_seconds


class MultiGpuJoin:
    """NOPA join distributed over several GPUs.

    The probe side is split over the GPUs by the morsel dispatcher at
    the rates the contention solver assigns; the build is executed by
    all GPUs in parallel (interleaved) or by one GPU plus a broadcast
    (replicated).
    """

    def __init__(
        self,
        machine: Machine,
        placement: str = "interleaved",
        calibration: Calibration = DEFAULT_CALIBRATION,
        hash_scheme: str = "perfect",
        obs: Optional[Observability] = None,
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; valid: {', '.join(PLACEMENTS)}"
            )
        self.machine = machine
        self.placement = placement
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.hash_scheme = hash_scheme

    # ------------------------------------------------------------------
    def _gpus(self, workers: Optional[Sequence[str]]) -> List[Gpu]:
        """The GPUs named by ``workers`` (every GPU by default);
        ``ValueError`` for a processor that is not a GPU."""
        gpus = []
        for name in workers or [gpu.name for gpu in self.machine.gpus()]:
            proc = self.machine.processor(name)
            if not isinstance(proc, Gpu):
                raise ValueError(f"multi-GPU join accepts GPUs only, got {name}")
            gpus.append(proc)
        if not gpus:
            raise ValueError("need at least one GPU")
        return gpus

    def _table_fractions(
        self, gpus: Sequence[Gpu], table_bytes: int
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Region fractions + per-GPU bytes for the chosen placement."""
        if self.placement == "replicated":
            for gpu in gpus:
                if table_bytes > gpu.local_memory.capacity:
                    raise OutOfMemoryError(
                        "replicated placement needs the table to fit every "
                        f"GPU; {table_bytes} bytes exceed {gpu.name}"
                    )
            return (
                {gpu.local_memory.name: 1.0 for gpu in gpus},
                {gpu.local_memory.name: table_bytes for gpu in gpus},
            )
        # Interleaved: validate via the real allocator, then return the
        # byte split it produced.
        allocator = Allocator(self.machine)
        allocation = allocate_interleaved(
            allocator, [gpu.name for gpu in gpus], table_bytes
        )
        per_region = allocation.bytes_per_region()
        allocation.free(allocator)
        fractions = {
            region: nbytes / table_bytes if table_bytes else 0.0
            for region, nbytes in per_region.items()
        }
        return fractions, per_region

    # ------------------------------------------------------------------
    def execute(self, r: Relation, s: Relation) -> JoinExecution:
        """Build the table from ``r`` and probe it with ``s`` on the real
        columns at the facades' default host tier; one execution serves
        every :meth:`price`."""
        return execute_join(r, s, self.hash_scheme, name="multigpu")[0]

    def run(
        self,
        r: Relation,
        s: Relation,
        workers: Optional[Sequence[str]] = None,
    ) -> MultiGpuResult:
        """Execute the join functionally and price it across the GPUs."""
        self._gpus(workers)  # refuse bad workers before executing
        return self.price(self.execute(r, s), r, s, workers)

    def price(
        self,
        execution: JoinExecution,
        r: Relation,
        s: Relation,
        workers: Optional[Sequence[str]] = None,
    ) -> MultiGpuResult:
        """Place, compile and price one execution of ``r`` ⋈ ``s`` over
        ``workers`` (every GPU by default); ``ValueError`` for an
        execution of another hash scheme or other columns."""
        check_execution(execution, self, r, s)
        gpus = self._gpus(workers)
        workers = tuple(gpu.name for gpu in gpus)
        table = execution.table
        table_bytes = table.modeled_bytes(r.modeled_tuples)

        fractions, per_region = self._table_fractions(gpus, table_bytes)
        # Plans record the host tier the default execution runs under.
        backend, exec_workers = host_tier(len(s.key))
        config = PhysicalConfig(
            strategy="multi-gpu",
            workers=workers,
            # Replicated copies live in each GPU's local memory; only
            # the interleaved table has a placement of its own.
            placement=(
                HashTablePlacement(table_bytes, fractions, label="interleaved")
                if self.placement == "interleaved"
                else None
            ),
            backend=backend,
            exec_workers=exec_workers,
            hash_scheme=self.hash_scheme,
            label="multigpu",
        )
        # Every GPU streams all of S: no payload line skipping.
        stats = JoinStats(
            table=TableProfile.from_table(table, r.modeled_tuples),
            lines_loaded=1.0,
            matches=execution.matches,
        )
        plan = compile_query(
            join_query(r, s), config, self.cost_model, stats
        )
        executed = PlanExecutor(self.cost_model).execute(plan)
        probe_out = executed.outcomes["probe"]
        return MultiGpuResult(
            matches=execution.matches,
            aggregate=execution.aggregate,
            placement=self.placement,
            build_seconds=executed.seconds("build"),
            probe_seconds=probe_out.cost.seconds,
            modeled_tuples=r.modeled_tuples + s.modeled_tuples,
            gpu_rates=probe_out.rates,
            table_bytes_per_gpu={k: int(v) for k, v in per_region.items()},
        )
