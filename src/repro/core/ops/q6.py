"""TPC-H query 6 on the simulated machine (Figure 15).

Q6 is a :class:`~repro.core.ops.scan.SelectionScan`: three predicates
over lineitem (shipdate window, discount band, quantity cut) and a
revenue aggregate.  Two kernel variants (Section 7.2.4):

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

from typing import Dict, Optional

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.ops.scan import Predicate, ScanExecution, ScanResult, SelectionScan
from repro.exec import DEFAULT_EXEC_MORSEL_TUPLES, DEFAULT_WORKERS
from repro.hardware.topology import Machine
from repro.obs import Observability
from repro.workloads.tpch import (
    Q6_DISCOUNT_HI,
    Q6_DISCOUNT_LO,
    Q6_QUANTITY_LT,
    Q6_SHIPDATE_HI,
    Q6_SHIPDATE_LO,
    Q6Workload,
)

#: the cascade in Q6's order: shipdate, discount, quantity.
PREDICATES = (
    Predicate(
        "l_shipdate",
        lambda col: (col >= Q6_SHIPDATE_LO) & (col < Q6_SHIPDATE_HI),
        "shipdate in [lo, hi)",
    ),
    Predicate(
        "l_discount",
        lambda col: (col >= np.float32(Q6_DISCOUNT_LO - 1e-6))
        & (col <= np.float32(Q6_DISCOUNT_HI + 1e-6)),
        "discount in [lo, hi]",
    ),
    Predicate("l_quantity", lambda col: col < Q6_QUANTITY_LT, "quantity < cut"),
)


def revenue(rows: Dict[str, np.ndarray]) -> float:
    """sum(l_extendedprice * l_discount) over the qualifying rows."""
    return float(
        (
            rows["l_extendedprice"].astype(np.float64)
            * rows["l_discount"].astype(np.float64)
        ).sum()
    )


class TpchQ6(SelectionScan):
    """Q6 operator with branching and predicated variants.

    ``backend`` selects how the predicate cascade executes on the host:
    ``serial`` | ``threads``.  The masks are merged by morsel order, so
    the revenue (``aggregate``) and every priced manifest are identical
    across backends and worker counts.
    """

    label = "q6"

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
        super().__init__(
            machine, PREDICATES, ["l_extendedprice"], revenue, variant,
            transfer_method, calibration, obs, backend, workers, exec_morsel_tuples,
        )

    def execute(self, workload: Q6Workload) -> ScanExecution:  # type: ignore[override]
        """Evaluate the cascade and the revenue on lineitem's columns."""
        return super().execute(workload.columns())

    def price(  # type: ignore[override]
        self, execution: ScanExecution, workload: Q6Workload, processor: str = "gpu0"
    ) -> ScanResult:
        """Price one execution of ``workload`` as this variant, at its
        modeled rows, location and memory kind.

        Raises:
            ValueError: if ``execution`` read other columns than
                ``workload`` holds.
        """
        return super().price(
            execution,
            workload.columns(),
            processor,
            location=workload.location,
            modeled_rows=workload.modeled_rows,
            kind=workload.kind,
        )

    def run(  # type: ignore[override]
        self, workload: Q6Workload, processor: str = "gpu0"
    ) -> ScanResult:
        """Execute Q6 functionally and price it."""
        return self.price(self.execute(workload), workload, processor)
