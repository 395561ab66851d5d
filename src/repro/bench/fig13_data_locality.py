"""Figure 13: base-relation locality (0-3 interconnect hops).

Workloads A/B/C scaled down to fit GPU memory (13, 12, 10 GiB), hash
table in GPU memory, relations stored in GPU memory (0 hops), local CPU
memory (1 hop over NVLink 2.0), remote CPU memory (2 hops, +X-Bus), and
remote GPU memory (3 hops).
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, near, price_series, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.utils.units import GIB
from repro.workloads.builders import workload_a, workload_b, workload_c

PAPER = {
    "A": {"gpu": 4.67, "cpu": 3.82, "rcpu": 2.52, "rgpu": 2.24},
    "B": {"gpu": 19.08, "cpu": 4.18, "rcpu": 2.61, "rgpu": 2.29},
    "C": {"gpu": 2.56, "cpu": 2.64, "rcpu": 2.59, "rgpu": 2.51},
}

LOCATIONS = {
    "gpu": "gpu0-mem",  # 0 hops
    "cpu": "cpu0-mem",  # 1 hop (NVLink 2.0)
    "rcpu": "cpu1-mem",  # 2 hops (NVLink + X-Bus)
    "rgpu": "gpu1-mem",  # 3 hops (NVLink + X-Bus + NVLink)
}

#: target data sizes (Section 7.2.2): 13 GiB, 12 GiB, 10 GiB.
_SIZE_SCALES = {
    "A": 13 * GIB / (34 * GIB),
    "B": 12 * GIB / (32 * GIB),
    "C": 10 * GIB / (16.0 * GIB),  # full C at 8-byte tuples is ~15.3 GiB
}


def _by_hops(r: FigureResult, workload: str):
    return [r.value(workload, location) for location in ("gpu", "cpu", "rcpu", "rgpu")]


CLAIMS = (
    Claim("A: throughput falls with every added hop",
          lambda r: r.value("A", "gpu") >= r.value("A", "cpu") > r.value("A", "rcpu")
          >= r.value("A", "rgpu")),
    Claim("A: three hops keep 30-75% of the local throughput (paper: a 32-46% decrease)",
          lambda r: 0.3 < r.value("A", "rgpu") / r.value("A", "gpu") < 0.75),
    Claim("B: the L2-cached table makes GPU-local over 3x one hop",
          lambda r: r.value("B", "gpu") / r.value("B", "cpu") > 3),
    Claim("C: flat within 20%, GPU-memory random accesses dominate",
          lambda r: max(_by_hops(r, "C")) / min(_by_hops(r, "C")) < 1.2),
    Claim("A one hop and B local are within 15% of the paper's 3.82 and 19.08",
          lambda r: near(r.value("A", "cpu"), 3.82, 0.15)
          and near(r.value("B", "gpu"), 19.08, 0.15)),
)


def _workloads(scale: float):
    return {
        "A": workload_a(scale=scale, size_scale=_SIZE_SCALES["A"]),
        "B": workload_b(scale=scale, size_scale=_SIZE_SCALES["B"]),
        "C": workload_c(scale=scale, size_scale=_SIZE_SCALES["C"]),
    }


def run(scale: float = 2.0**-12) -> FigureResult:
    result = FigureResult(
        figure="Figure 13",
        title="Base-relation locality (hops 0-3), hash table in GPU memory",
        paper=PAPER,
        notes=(
            "A: throughput decreases 32-46% with hops; B: GPU memory is "
            "~5x a single hop (L2-cached table); C: flat — GPU-memory "
            "random accesses dominate, NVLink is not the bottleneck."
        ),
    )
    machine = ibm_ac922(gpus=2)
    join = NoPartitioningJoin(
        machine, hash_table_placement="gpu", transfer_method="coherence"
    )
    series = [
        Series(label, join, {"processor": "gpu0"}, location)
        for label, location in LOCATIONS.items()
    ]
    for name, workload in _workloads(scale).items():
        # Placed copies share their columns: one execution per row.
        execution = NoPartitioningJoin(machine).execute(workload.r, workload.s)
        result.add(name, **throughputs(price_series(execution, workload, series)))
    return result
