"""Figure 12: NOPA join throughput per transfer method.

Workload A (2 GiB ⋈ 32 GiB), relations in CPU memory, hash table built
in GPU memory; every Table 1 method on PCI-e 3.0 and NVLink 2.0.  The
relation's memory kind is set to each method's requirement (the paper
allocates pageable/pinned/unified memory per method).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.common import Claim, FigureResult, Series, missing, near, price_series, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_a

PAPER = {
    "pageable_copy": {"pcie3": 0.25, "nvlink2": 0.67},
    "staged_copy": {"pcie3": 0.73, "nvlink2": 2.15},
    "dynamic_pinning": {"pcie3": 0.26, "nvlink2": 2.36},
    "pinned_copy": {"pcie3": 0.74, "nvlink2": 3.42},
    "um_prefetch": {"pcie3": 0.54, "nvlink2": 0.16},
    "um_migration": {"pcie3": 0.25, "nvlink2": 0.17},
    "zero_copy": {"pcie3": 0.77, "nvlink2": 3.81},
    "coherence": {"nvlink2": 3.83},  # unsupported on PCI-e 3.0
}

METHOD_ORDER = [
    "pageable_copy",
    "staged_copy",
    "dynamic_pinning",
    "pinned_copy",
    "um_prefetch",
    "um_migration",
    "zero_copy",
    "coherence",
]

_UNIFIED = {"um_prefetch", "um_migration"}


def _nvlink_over_pcie(r: FigureResult) -> Dict[str, float]:
    """NVLink 2.0's speed-up over PCI-e 3.0 for each method run on both."""
    return {
        row.label: row.values["nvlink2"] / row.values["pcie3"]
        for row in r.rows
        if "pcie3" in row.values
    }


CLAIMS = (
    Claim("Coherence and Zero-Copy are the fastest methods on NVLink 2.0",
          lambda r: near(r.value("coherence", "nvlink2"), max(r.series("nvlink2")), 0.01)
          and near(r.value("zero_copy", "nvlink2"), max(r.series("nvlink2")), 0.02)),
    Claim("Coherence is unsupported on PCI-e 3.0",
          lambda r: missing(r, "coherence", "pcie3")),
    Claim("NVLink 2.0 runs Zero-Copy 4-6x faster than PCI-e 3.0",
          lambda r: 4 < r.value("zero_copy", "nvlink2") / r.value("zero_copy", "pcie3") < 6),
    Claim("Unified Memory underperforms on POWER9: the only methods NVLink 2.0 loses on",
          lambda r: {m for m, x in _nvlink_over_pcie(r).items() if x < 1} == _UNIFIED),
    Claim("Every method but Unified Memory is faster on NVLink 2.0 than on PCI-e 3.0",
          lambda r: {m for m, x in _nvlink_over_pcie(r).items() if x > 1}
          == set(_nvlink_over_pcie(r)) - _UNIFIED),
    Claim("PCI-e 3.0 needs pinned memory for its peak: Zero-Copy is over 2x Pageable Copy",
          lambda r: r.value("zero_copy", "pcie3") > 2 * r.value("pageable_copy", "pcie3")),
)


def run(scale: float = 2.0**-12) -> FigureResult:
    result = FigureResult(
        figure="Figure 12",
        title="NOPA join per transfer method, workload A",
        paper=PAPER,
        notes=(
            "Coherence and Zero-Copy are fastest on NVLink 2.0; Coherence "
            "is unsupported on PCI-e 3.0; Unified Memory underperforms on "
            "the POWER9 platform."
        ),
    )
    workload = workload_a(scale=scale)
    machines = {"nvlink2": ibm_ac922(), "pcie3": intel_xeon_v100()}
    # Every method and link prices the same join of the same columns.
    execution = NoPartitioningJoin(machines["nvlink2"]).execute(
        workload.r, workload.s
    )
    for method in METHOD_ORDER:
        series = [
            Series(
                link,
                NoPartitioningJoin(
                    machine, hash_table_placement="gpu", transfer_method=method
                ),
                {"processor": "gpu0"},
                "cpu0-mem",
            )
            for link, machine in machines.items()
        ]
        result.add(method, **throughputs(price_series(execution, (workload.r, workload.s), series)))
    return result
