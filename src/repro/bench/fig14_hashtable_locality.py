"""Figure 14: hash-table locality (0-3 interconnect hops).

Workloads A/B/C (up to 34 GiB), base relations in local CPU memory (one
NVLink hop from the GPU), hash table placed in GPU memory, local CPU
memory, remote CPU memory, and remote GPU memory.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, near, price_series, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a, workload_b, workload_c

PAPER = {
    "A": {"gpu": 3.82, "cpu": 0.59, "rcpu": 0.30, "rgpu": 0.24},
    "B": {"gpu": 4.17, "cpu": 0.66, "rcpu": 0.33, "rgpu": 0.33},
    "C": {"gpu": 2.62, "cpu": 0.37, "rcpu": 0.19, "rgpu": 0.13},
}

PLACEMENTS = {
    "gpu": "gpu0-mem",
    "cpu": "cpu0-mem",
    "rcpu": "cpu1-mem",
    "rgpu": "gpu1-mem",
}


CLAIMS = (
    Claim("A, B: one NVLink hop to the table costs 70-95% of throughput (paper: 75-85%)",
          lambda r: all(0.7 < 1 - r.value(wl, "cpu") / r.value(wl, "gpu") < 0.95
                        for wl in "AB")),
    Claim("A, B, C: every added hop costs throughput",
          lambda r: all(r.value(wl, "gpu") > r.value(wl, "cpu") > r.value(wl, "rcpu")
                        >= r.value(wl, "rgpu") * 0.99 for wl in "ABC")),
    Claim("B's cache-sized table gets no remote L2 relief: one hop is within 25% of A's",
          lambda r: near(r.value("B", "cpu"), r.value("A", "cpu"), 0.25)),
    Claim("A local and one hop are within 10% and 15% of the paper's 3.82 and 0.59",
          lambda r: near(r.value("A", "gpu"), 3.82, 0.1)
          and near(r.value("A", "cpu"), 0.59, 0.15)),
)


def run(scale: float = 2.0**-12) -> FigureResult:
    result = FigureResult(
        figure="Figure 14",
        title="Hash-table locality (hops 0-3), relations in local CPU memory",
        paper=PAPER,
        notes=(
            "One NVLink hop to the table costs 75-85% of throughput; the "
            "GPU's memory-side L2 cannot cache the remote table, so even "
            "workload B's cache-sized table gets no relief."
        ),
    )
    machine = ibm_ac922(gpus=2)
    workloads = {
        "A": workload_a(scale=scale),
        "B": workload_b(scale=scale),
        "C": workload_c(scale=scale),
    }
    series = [
        Series(
            label,
            NoPartitioningJoin(
                machine, hash_table_placement=region, transfer_method="coherence"
            ),
            {"processor": "gpu0"},
        )
        for label, region in PLACEMENTS.items()
    ]
    for name, workload in workloads.items():
        execution = NoPartitioningJoin(machine).execute(workload.r, workload.s)
        result.add(name, **throughputs(price_series(execution, (workload.r, workload.s), series)))
    return result
