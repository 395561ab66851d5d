"""Figure 17: build-side scaling (hash table up to 2x GPU memory).

Workload C with 16-byte tuples; both relations scale together from 128
to 2048 million tuples, so the hash table grows from 2 GiB to 32 GiB —
past the 16 GiB GPU at ~1024 million tuples.  Series: CPU radix
baseline, GPU over PCI-e 3.0, GPU over NVLink 2.0 (table spilled
entirely to CPU memory once it no longer fits), and NVLink 2.0 with the
hybrid hash table.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, falling, near, price_series, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_ratio

#: curve readings: in-core plateau and out-of-core floor.
PAPER = {
    "512M": {"nvlink2": 1.5, "pcie3": 0.77, "cpu-pra": 0.45, "nvlink2-hybrid": 1.5},
    "2048M": {"nvlink2": 0.32, "pcie3": 0.02, "cpu-pra": 0.45, "nvlink2-hybrid": 0.6},
}

TUPLE_MILLIONS = (128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048)

def _gain(r: FigureResult, label: str) -> float:
    """The hybrid table's speed-up over the plainly spilled one."""
    return r.value(label, "nvlink2-hybrid") / r.value(label, "nvlink2")


CLAIMS = (
    Claim("The table outgrows the GPU between 1024M and 1280M tuples: PCI-e 3.0 drops over "
          "10x, NVLink 2.0 over 2x",
          lambda r: r.value("1024M", "pcie3") > 10 * r.value("1280M", "pcie3")
          and r.value("1024M", "nvlink2") > 2 * r.value("1280M", "nvlink2")),
    Claim("PCI-e 3.0 rides over a cliff: under 5% is left at 2048M (paper: -97%)",
          lambda r: r.value("2048M", "pcie3") / r.value("512M", "pcie3") < 0.05),
    Claim("NVLink 2.0 degrades gracefully: 10-45% is left at 2048M (paper: -85%)",
          lambda r: 0.1 < r.value("2048M", "nvlink2") / r.value("512M", "nvlink2") < 0.45),
    Claim("Out of core, NVLink 2.0 stays 8-30x above PCI-e 3.0 (paper: 8-18x)",
          lambda r: 8 < r.value("2048M", "nvlink2") / r.value("2048M", "pcie3") < 30),
    Claim("Out of core, NVLink 2.0 is within 25% of the CPU (paper: 13%)",
          lambda r: near(r.value("2048M", "nvlink2"), r.value("2048M", "cpu-pra"), 0.25)),
    Claim("The hybrid hash table degrades gracefully: it never rises with size",
          lambda r: falling(r.series("nvlink2-hybrid"), 0.001)),
    Claim("Spilled (1280M on), the hybrid table adds 1-4x, under 2.5x at 2048M (paper: "
          "1-2.2x)",
          lambda r: all(1.0 < _gain(r, f"{m}M") < 4.0 for m in (1280, 1536, 1792, 2048))
          and _gain(r, "2048M") < 2.5),
    Claim("The CPU baseline is flat (within 10%)",
          lambda r: max(r.series("cpu-pra")) / min(r.series("cpu-pra")) < 1.1),
)


def run(scale: float = 2.0**-13, tuple_millions=TUPLE_MILLIONS) -> FigureResult:
    result = FigureResult(
        figure="Figure 17",
        title="Build-side scaling (workload C, 16-byte tuples)",
        paper=PAPER,
        notes=(
            "PCI-e rides over a 97% performance cliff when the table "
            "spills; NVLink 2.0 degrades gracefully, stays 8-18x above "
            "PCI-e and within ~13% of the CPU; the hybrid table adds "
            "1-2.2x on top."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    hybrid = NoPartitioningJoin(ibm, hash_table_placement="hybrid")
    # GPU placement while it fits, whole-table CPU spill afterwards: the
    # non-hybrid behaviour the paper plots as "NVLink 2.0" / "PCI-e 3.0".
    series = [
        Series(name, NoPartitioningJoin(machine, hash_table_placement=table, transfer_method=tm))
        for name, machine, tm in (("nvlink2", ibm, "coherence"), ("pcie3", intel, "zero_copy"))
        for table in ("gpu", "cpu")
    ] + [Series("nvlink2-hybrid", hybrid)]
    for millions in tuple_millions:
        workload = workload_ratio(1, scale=scale, modeled_r=millions * 10**6)
        execution = hybrid.execute(workload.r, workload.s)
        values = throughputs(price_series(execution, (workload.r, workload.s), series))
        values["cpu-pra"] = (
            RadixJoin(ibm).run(workload.r, workload.s).throughput_gtuples
        )
        result.add(f"{millions}M", **values)
    return result
