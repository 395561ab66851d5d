"""Figure 16: probe-side scaling.

Workload C with 16-byte tuples; |R| fixed at 1024 million tuples (hash
table in GPU memory), |S| scaled from 128 to 8192 million tuples
(1.9-122 GiB).  Series: CPU radix baseline (PRA), GPU over PCI-e 3.0,
GPU over NVLink 2.0.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.bench.common import Claim, FigureResult, Series, price_series, rising, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.data.relation import Relation
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_ratio

#: approximate curve readings (G Tuples/s).
PAPER = {
    "8192M": {"nvlink2": 3.8, "pcie3": 0.77, "cpu-pra": 0.5},
    "1024M": {"nvlink2": 2.4, "pcie3": 0.77, "cpu-pra": 0.5},
}

PROBE_MILLIONS = (128, 512, 1024, 2048, 4096, 8192)
BUILD_MILLIONS = 1024

CLAIMS = (
    Claim("Past the smallest probe side, NVLink 2.0 is 2.5-6.5x PCI-e 3.0 and 2.5-9x the CPU "
          "(paper: 3-6x and 3.2-7.3x)",
          lambda r: all(2.5 < row.values["nvlink2"] / row.values["pcie3"] < 6.5
                        and 2.5 < row.values["nvlink2"] / row.values["cpu-pra"] < 9
                        for row in r.rows[1:])),
    Claim("NVLink 2.0 beats PCI-e 3.0 and the CPU at every probe size",
          lambda r: all(row.values["nvlink2"] > max(row.values["pcie3"], row.values["cpu-pra"])
                        for row in r.rows)),
    Claim("NVLink 2.0 improves with larger probe sides",
          lambda r: rising(r.series("nvlink2"))),
    Claim("PCI-e 3.0 stays flat (within 5%) at its transfer bottleneck, below 2x the CPU",
          lambda r: max(r.series("pcie3")) / min(r.series("pcie3")) < 1.05
          and all(row.values["pcie3"] < 2 * row.values["cpu-pra"] for row in r.rows)),
)


def run(scale: float = 2.0**-13, probe_millions=PROBE_MILLIONS) -> FigureResult:
    result = FigureResult(
        figure="Figure 16",
        title="Probe-side scaling (workload C, 16-byte tuples)",
        paper=PAPER,
        notes=(
            "NVLink 2.0 is 3-6x PCI-e 3.0 and 3.2-7.3x the CPU baseline; "
            "PCI-e stays flat at its transfer bottleneck and cannot beat "
            "the CPU."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    # Rows of one |R|:|S| ratio join the same generated relations (the
    # sub-1:1 rows price a shorter modeled S over them), so each ratio
    # is generated and executed once.
    by_ratio: Dict[int, List[int]] = {}
    for millions in probe_millions:
        by_ratio.setdefault(max(1, millions // BUILD_MILLIONS), []).append(millions)
    gpu_series = (
        Series("nvlink2", NoPartitioningJoin(ibm, hash_table_placement="gpu")),
        Series(
            "pcie3",
            NoPartitioningJoin(
                intel, hash_table_placement="gpu", transfer_method="zero_copy"
            ),
        ),
    )
    radix = RadixJoin(ibm)
    rows: Dict[int, Dict[str, float]] = {}
    for ratio, group in by_ratio.items():
        workload = workload_ratio(
            ratio, scale=scale, modeled_r=BUILD_MILLIONS * 10**6
        )
        nopa = NoPartitioningJoin(ibm).execute(workload.r, workload.s)
        radix_execution = radix.execute(workload.r, workload.s)
        for millions in group:
            wl = _probing(workload, millions)
            rows[millions] = throughputs({
                **price_series(nopa, wl, gpu_series),
                **price_series(radix_execution, wl, [Series("cpu-pra", radix)]),
            })
    for millions in probe_millions:
        result.add(f"{millions}M", **rows[millions])
    return result


def _probing(workload, millions: int):
    """``workload`` with S's modeled cardinality cut to ``millions``
    million tuples when that is below R's (the columns stay shared)."""
    if millions >= BUILD_MILLIONS:
        return workload
    s = workload.s
    columns = s.columns()
    truncated = Relation(
        s.name,
        columns["key"],
        columns["payload"],
        millions * 10**6,
        s.location,
        s.kind,
    )
    return replace(workload, s=truncated)
