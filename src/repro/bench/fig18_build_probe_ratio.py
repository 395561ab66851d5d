"""Figure 18: build-to-probe ratios (1:1 up to 1:16).

Workload C with 16-byte tuples; R fixed at 2 GiB (128 million tuples),
S grows to 30.5 GiB; relations in CPU memory, hash table in GPU memory,
NVLink 2.0 Coherence.  Panel (a) reports throughput, panel (b) the
build/probe time breakdown.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, near, rising
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_ratio

# Figure 18b's build shares: 71% at 1:1 ("the build phase takes 71% of
# the time"), shrinking to 13% at 1:16.
PAPER = {
    "1:1": {"throughput": 2.41, "build_pct": 71.0},
    "1:2": {"throughput": 2.81, "build_pct": 55.0},
    "1:4": {"throughput": 3.24, "build_pct": 38.0},
    "1:8": {"throughput": 3.60, "build_pct": 24.0},
    "1:16": {"throughput": 3.85, "build_pct": 13.0},
}

RATIOS = (1, 2, 4, 8, 16)

CLAIMS = (
    Claim("Throughput rises with the probe side's share",
          lambda r: rising(r.series("throughput"))),
    Claim("The build phase's share of the time shrinks with every ratio step",
          lambda r: all(b < a for a, b in zip(r.series("build_pct"), r.series("build_pct")[1:]))),
    Claim("Building is ~45% slower per tuple than probing: the 1:1 build share implies a "
          "2.45x cost ratio (within 15%)",
          lambda r: near(r.value("1:1", "build_pct") / (100 - r.value("1:1", "build_pct")),
                         2.45, 0.15)),
)


def run(scale: float = 2.0**-11, ratios=RATIOS) -> FigureResult:
    result = FigureResult(
        figure="Figure 18",
        title="Build-to-probe ratios on NVLink 2.0",
        unit="G Tuples/s, %",
        paper=PAPER,
        notes=(
            "The build phase is ~45% slower per tuple than the probe "
            "phase (atomics); its time share shrinks as the probe side "
            "grows, so throughput rises with the ratio."
        ),
    )
    machine = ibm_ac922()
    for ratio in ratios:
        workload = workload_ratio(ratio, scale=scale)
        join = NoPartitioningJoin(machine, hash_table_placement="gpu")
        res = join.run(workload.r, workload.s)
        result.add(
            f"1:{ratio}",
            throughput=res.throughput_gtuples,
            build_pct=100.0 * res.build_fraction,
        )
    return result
