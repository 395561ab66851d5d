"""Figure 19: Zipf-skewed probe relations.

Workload A (34 GiB) with the probe side skewed by Zipf exponents
0-1.75; the hash table is placed in CPU memory, in GPU memory, and in
hybrid tables with explicit GPU/CPU byte splits (0/100, 10/90, 30/70,
50/50, 100/0).  Series are shown for the CPU (NOPA), the GPU over
PCI-e 3.0, and the GPU over NVLink 2.0.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.bench.common import Claim, FigureResult, Series, price_series, rising, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_skewed

#: curve readings at the end points (hash table fully in CPU memory).
PAPER = {
    "zipf=0.0": {"cpu": 0.5, "nvlink2": 0.6, "pcie3": 0.05},
    "zipf=1.5": {"cpu": 1.75, "nvlink2": 2.17, "pcie3": 0.31},
}

EXPONENTS = (0.0, 0.5, 1.0, 1.25, 1.5, 1.75)
GPU_SPLITS = (0.0, 0.1, 0.3, 0.5, 1.0)

_SERIES = ("cpu", "nvlink2", "pcie3")

CLAIMS = (
    Claim("Skew raises throughput for CPU-resident tables: over 2x on the CPU, 2.5x on NVLink "
          "2.0, 3x on PCI-e 3.0 (paper: 3.5x, 3.6x, 6.1x)",
          lambda r: all(r.value("zipf=1.75", series) / r.value("zipf=0.0", series) > gain
                        for series, gain in zip(_SERIES, (2.0, 2.5, 3.0)))),
    Claim("Throughput is monotone in the Zipf exponent (1% slack)",
          lambda r: all(rising(r.series(series), 0.01) for series in _SERIES)),
    Claim("PCI-e 3.0 stays below half of NVLink 2.0 even at peak skew",
          lambda r: r.value("zipf=1.75", "pcie3") < 0.5 * r.value("zipf=1.75", "nvlink2")),
)

#: claims of ``run(gpu_split=1.0)``.
GPU_RESIDENT_CLAIMS = (
    Claim("Fully GPU-resident tables see (almost) no skew effect: NVLink 2.0 moves under 10% "
          "from zipf 0 to 1.5",
          lambda r: abs(r.value("zipf=1.5", "nvlink2") / r.value("zipf=0.0", "nvlink2") - 1)
          < 0.1),
)

#: claims of ``run_splits``.
SPLIT_CLAIMS = (
    Claim("Throughput rises with the hybrid table's GPU fraction",
          lambda r: rising(r.series("nvlink2"))),
)


def run(
    scale: float = 2.0**-12,
    exponents: Iterable[float] = EXPONENTS,
    gpu_split: float = 0.0,
) -> FigureResult:
    """Reproduce the CPU/NVLink/PCIe series for one hybrid split.

    ``gpu_split`` is the fraction of the hash table in GPU memory
    (0.0 = the paper's "0,100" series; 1.0 = "100,0").
    """
    result = FigureResult(
        figure="Figure 19",
        title=(
            "Zipf-skewed probe relation, hash table split "
            f"{gpu_split:.0%} GPU / {1 - gpu_split:.0%} CPU"
        ),
        paper=PAPER if gpu_split == 0.0 else {},
        notes=(
            "Higher skew concentrates probes on a cacheable hot set: "
            "throughput rises ~3.5x (CPU), ~3.6x (NVLink), ~6.1x (PCI-e); "
            "fully GPU-resident tables see no effect (the interconnect "
            "transfer of the base relations is the bottleneck)."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    cpu = NoPartitioningJoin(ibm, hash_table_placement="cpu")
    links = (("nvlink2", ibm, "coherence"), ("pcie3", intel, "zero_copy"))
    for exponent in exponents:
        workload = workload_skewed(exponent, scale=scale)
        hot = workload.hot_set_profile()
        series = [Series("cpu", cpu, {"processor": "cpu0", "hot_set": hot})] + [
            Series(name, NoPartitioningJoin(machine, transfer_method=method), {
                "processor": "gpu0",
                "hot_set": hot,
                "placement_fractions": _fractions(machine, gpu_split),
            })
            for name, machine, method in links
        ]
        execution = cpu.execute(workload.r, workload.s)
        result.add(f"zipf={exponent}", **throughputs(price_series(execution, workload, series)))
    return result


def run_splits(
    scale: float = 2.0**-12,
    exponent: float = 1.5,
    splits: Iterable[float] = GPU_SPLITS,
) -> FigureResult:
    """NVLink throughput vs. hybrid split at one skew level (the
    figure's legend dimension), one row per GPU fraction."""
    result = FigureResult(
        figure="Figure 19 splits",
        title=f"NVLink throughput at zipf={exponent} by hybrid split",
        notes="Throughput rises with the hash table's GPU fraction.",
    )
    ibm = ibm_ac922()
    workload = workload_skewed(exponent, scale=scale)
    hot = workload.hot_set_profile()
    join = NoPartitioningJoin(ibm)
    series = [
        Series(f"{split:.0%} GPU", join, {
            "processor": "gpu0",
            "hot_set": hot,
            "placement_fractions": _fractions(ibm, split),
        })
        for split in splits
    ]
    execution = join.execute(workload.r, workload.s)
    for label, throughput in throughputs(price_series(execution, workload, series)).items():
        result.add(label, nvlink2=throughput)
    return result


def _fractions(machine, gpu_split: float) -> Dict[str, float]:
    gpu_region = machine.gpu(0).local_memory.name
    cpu_region = machine.nearest_cpu_memory(machine.gpu(0).name).name
    if gpu_split <= 0.0:
        return {cpu_region: 1.0}
    if gpu_split >= 1.0:
        return {gpu_region: 1.0}
    return {gpu_region: gpu_split, cpu_region: 1.0 - gpu_split}
