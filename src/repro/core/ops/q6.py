"""TPC-H query 6 on the simulated machine (Figure 15).

Two kernel variants (Section 7.2.4):

* **predicated** — branch-free SIMD evaluation; every column is loaded
  in full, so throughput is bounded by the data path (interconnect for
  the GPU, memory bandwidth for the CPU);
* **branching** — short-circuit predicate cascade; later columns are
  loaded only for cache lines with surviving rows.  With the query's
  ~1.9% combined selectivity and dbgen's shipdate clustering this skips
  most of the input, which is why branching wins on the GPU where the
  interconnect is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.ops.selection import selection_line_fractions
from repro.data.relation import Column, check_same_columns
from repro.exec import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    check_backend,
    execute_masks,
    make_executor,
)
from repro.hardware.topology import Machine
from repro.logical.algebra import Query, between, ge, lt, mul, scan
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import ScanStats
from repro.obs import Observability
from repro.plan import Plan, PlanExecutor
from repro.workloads.tpch import (
    Q6_DISCOUNT_HI,
    Q6_DISCOUNT_LO,
    Q6_QUANTITY_LT,
    Q6_SHIPDATE_HI,
    Q6_SHIPDATE_LO,
    Q6Workload,
)

VARIANTS = ("branching", "predicated")


@dataclass(frozen=True)
class Q6Execution:
    """What one functional Q6 execution leaves for pricing: the answer,
    the branching cascade's line fractions (shipdate, discount,
    quantity, extendedprice) and the column objects read — no row
    masks."""

    revenue: float
    qualifying_rows: int
    cascade_line_fractions: Tuple[float, ...]
    columns: Dict[str, Column]


@dataclass
class Q6Result:
    """Functional revenue plus simulated performance."""

    revenue: float
    qualifying_rows: int
    selectivity: float
    cost: PhaseCost
    modeled_rows: int
    variant: str
    processor: str
    column_line_fractions: List[float]

    @property
    def runtime(self) -> float:
        return self.cost.seconds

    @property
    def throughput_tuples(self) -> float:
        if self.runtime == 0:
            return float("inf")
        return self.modeled_rows / self.runtime

    @property
    def throughput_gtuples(self) -> float:
        return self.throughput_tuples / 1e9


class TpchQ6:
    """Q6 operator with branching and predicated variants.

    ``backend`` selects how the predicate cascade executes on the host:
    ``serial`` | ``threads``.  The masks are merged by morsel order, so
    the aggregate and every priced manifest are identical across
    backends and worker counts.
    """

    def __init__(
        self,
        machine: Machine,
        variant: str = "predicated",
        transfer_method: str = "coherence",
        calibration: Calibration = DEFAULT_CALIBRATION,
        obs: Optional[Observability] = None,
        backend: str = "serial",
        workers: int = DEFAULT_WORKERS,
        exec_morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}"
            )
        self.machine = machine
        self.variant = variant
        self.transfer_method = transfer_method
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.backend = check_backend(backend)
        self.workers = workers
        self.exec_morsel_tuples = exec_morsel_tuples
        self.last_executor = None

    # ------------------------------------------------------------------
    @staticmethod
    def _predicate_evaluators(workload: Q6Workload):
        """Range-sliced predicate evaluators (element-wise, so a
        morsel-split evaluation concatenates to the whole-array masks
        bit for bit)."""
        return [
            lambda lo, hi: (workload.shipdate[lo:hi] >= Q6_SHIPDATE_LO)
            & (workload.shipdate[lo:hi] < Q6_SHIPDATE_HI),
            lambda lo, hi: (
                workload.discount[lo:hi] >= np.float32(Q6_DISCOUNT_LO - 1e-6)
            )
            & (workload.discount[lo:hi] <= np.float32(Q6_DISCOUNT_HI + 1e-6)),
            lambda lo, hi: workload.quantity[lo:hi] < Q6_QUANTITY_LT,
        ]

    def execute(self, workload: Q6Workload) -> Q6Execution:
        """Evaluate the predicate cascade and the revenue on the real
        columns.  Both variants compute the same answer, so one
        execution prices either on any machine."""
        executor = make_executor(
            self.backend, self.workers, self.exec_morsel_tuples, name="q6"
        )
        self.last_executor = executor
        masks = execute_masks(
            len(workload.shipdate),
            self._predicate_evaluators(workload),
            executor,
        )
        rows = np.flatnonzero(masks[0] & masks[1] & masks[2])
        revenue = float(
            (
                workload.extendedprice.take(rows).astype(np.float64)
                * workload.discount.take(rows).astype(np.float64)
            ).sum()
        )
        return Q6Execution(
            revenue=revenue,
            qualifying_rows=len(rows),
            cascade_line_fractions=tuple(
                selection_line_fractions(masks, value_bytes=4)
            ),
            columns=workload.columns(),
        )

    # ------------------------------------------------------------------
    def _column_fractions(self, execution: Q6Execution) -> List[float]:
        """Per-column line-load fractions for this variant.

        Column order: shipdate, discount, quantity, extendedprice.
        Predication loads everything; branching cascades.
        """
        if self.variant == "predicated":
            return [1.0, 1.0, 1.0, 1.0]
        fractions = execution.cascade_line_fractions
        # fractions = [shipdate, discount-after-shipdate, quantity-after-
        # shipdate&discount, extendedprice-after-all]. Divergence and
        # prefetch still pull part of every skippable column.
        residual = self.calibration.branching_residual_load
        return [fractions[0]] + [
            residual + (1.0 - residual) * f for f in fractions[1:]
        ]

    def logical_query(self, workload: Q6Workload) -> Query:
        """Q6 as a logical plan (Figure 15's scan/filter/aggregate).

        The selectivity hints are dbgen's: the one-year shipdate window
        keeps ~15% of lineitem (and dbgen clusters by shipdate), the
        discount band ~27%, the quantity cut ~48%.
        """
        return (
            scan(workload, name="lineitem")
            .filter(
                ge(
                    "l_shipdate",
                    Q6_SHIPDATE_LO,
                    selectivity=0.15,
                    clustered=True,
                ),
                lt("l_shipdate", Q6_SHIPDATE_HI),
                between(
                    "l_discount",
                    np.float32(Q6_DISCOUNT_LO - 1e-6),
                    np.float32(Q6_DISCOUNT_HI + 1e-6),
                    selectivity=0.27,
                ),
                lt("l_quantity", Q6_QUANTITY_LT, selectivity=0.48),
            )
            .project(revenue=mul("l_extendedprice", "l_discount"))
            .aggregate(revenue=("revenue", "sum"))
        )

    def compile_plan(
        self, workload: Q6Workload, processor: str, fractions: List[float]
    ) -> Plan:
        """One-phase plan: the fused scan/filter/aggregate kernel,
        lowered from the logical query."""
        config = PhysicalConfig(
            strategy="single",
            processor=processor,
            transfer_method=self.transfer_method,
            variant=self.variant,
            backend=self.backend,
            exec_workers=self.workers,
            label="q6",
        )
        return compile_query(
            self.logical_query(workload),
            config,
            self.cost_model,
            ScanStats(tuple(fractions)),
        )

    # ------------------------------------------------------------------
    def run(self, workload: Q6Workload, processor: str = "gpu0") -> Q6Result:
        """Execute Q6 functionally and price it."""
        return self.price(self.execute(workload), workload, processor)

    def price(
        self, execution: Q6Execution, workload: Q6Workload, processor: str = "gpu0"
    ) -> Q6Result:
        """Price one execution of ``workload`` as this variant.

        Raises:
            ValueError: if ``execution`` read other columns than
                ``workload`` holds.
        """
        check_same_columns(execution.columns, workload.columns())
        fractions = self._column_fractions(execution)
        plan = self.compile_plan(workload, processor, fractions)
        executed_plan = PlanExecutor(self.cost_model).execute(plan)
        cost = executed_plan.cost("scan")
        executed = max(1, workload.executed_rows)
        return Q6Result(
            revenue=execution.revenue,
            qualifying_rows=execution.qualifying_rows,
            selectivity=execution.qualifying_rows / executed,
            cost=cost,
            modeled_rows=workload.modeled_rows,
            variant=self.variant,
            processor=processor,
            column_line_fractions=fractions,
        )
