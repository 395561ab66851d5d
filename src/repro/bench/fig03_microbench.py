"""Figure 3: bandwidth and latency microbenchmarks.

Three panels of 4-byte reads on 1 GiB of data:

* (a) NVLink 2.0 vs. PCI-e 3.0, UPI, X-Bus (GPU/CPU interconnects),
* (b) NVLink 2.0 vs. Xeon and POWER9 CPU memory,
* (c) NVLink 2.0 vs. V100 GPU memory.

The microbenchmark issues *dependent* reads, so the simulated values
are the raw spec rates (the cost model's independent-access uplift does
not apply here); end-to-end latencies come from the topology's path
model.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult
from repro.costmodel.model import CostModel
from repro.hardware.specs import (
    DDR4_POWER9,
    DDR4_XEON,
    HBM2_V100,
    NVLINK2,
    PCIE3,
    UPI,
    XBUS,
)
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.utils.units import GIB, NS

PAPER = {
    "nvlink2": {"seq": 63.0, "random": 2.8, "latency_ns": 434.0},
    "pcie3": {"seq": 12.0, "random": 0.2, "latency_ns": 790.0},
    "upi": {"seq": 32.0, "random": 2.0, "latency_ns": 121.0},
    "xbus": {"seq": 31.0, "random": 1.1, "latency_ns": 211.0},
    "xeon-memory": {"seq": 81.0, "random": 2.7, "latency_ns": 70.0},
    "power9-memory": {"seq": 117.0, "random": 3.6, "latency_ns": 68.0},
    "gpu-memory": {"seq": 729.0, "random": 22.3, "latency_ns": 282.0},
}

CLAIMS = (
    Claim("(a) NVLink 2.0 has over 5x PCI-e 3.0's sequential and 10x its random bandwidth",
          lambda r: r.value("nvlink2", "seq") / r.value("pcie3", "seq") > 5
          and r.value("nvlink2", "random") / r.value("pcie3", "random") > 10),
    Claim("(a) NVLink 2.0's latency lies between UPI's and PCI-e 3.0's",
          lambda r: r.value("upi", "latency_ns") < r.value("nvlink2", "latency_ns")
          < r.value("pcie3", "latency_ns")),
    Claim("(b) NVLink 2.0 is within 2x of POWER9 memory bandwidth, at over 5x its latency",
          lambda r: r.value("power9-memory", "seq") / r.value("nvlink2", "seq") < 2
          and r.value("nvlink2", "latency_ns") / r.value("power9-memory", "latency_ns") > 5),
    Claim("(c) GPU memory is an order of magnitude above the link",
          lambda r: r.value("gpu-memory", "seq") / r.value("nvlink2", "seq") > 10),
)


def run() -> FigureResult:
    result = FigureResult(
        figure="Figure 3",
        title="Interconnect/memory microbenchmarks (4-byte reads)",
        unit="GiB/s, ns",
        paper=PAPER,
        notes=(
            "NVLink 2.0: 5x the sequential and 14x the random bandwidth of "
            "PCI-e 3.0 at 45% lower latency; within 2x of CPU memory "
            "bandwidth but 6x its latency."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    ibm_cm = CostModel(ibm)
    intel_cm = CostModel(intel)

    # Panel (a): interconnects. Paths: GPU->CPU memory over NVLink/PCIe;
    # CPU->remote CPU memory over X-Bus/UPI.
    for label, spec, cm, proc, mem in (
        ("nvlink2", NVLINK2, ibm_cm, "gpu0", "cpu0-mem"),
        ("pcie3", PCIE3, intel_cm, "gpu0", "cpu0-mem"),
        ("upi", UPI, intel_cm, "cpu0", "cpu1-mem"),
        ("xbus", XBUS, ibm_cm, "cpu0", "cpu1-mem"),
    ):
        result.add(
            label,
            seq=min(cm.sequential_bandwidth(proc, mem), spec.seq_bw) / GIB,
            random=spec.random_bw_4b / GIB,
            latency_ns=spec.latency / NS,
        )

    # Panels (b) and (c): memories, accessed locally.
    for label, spec in (
        ("xeon-memory", DDR4_XEON),
        ("power9-memory", DDR4_POWER9),
        ("gpu-memory", HBM2_V100),
    ):
        result.add(
            label,
            seq=spec.seq_bw / GIB,
            random=spec.random_bw_4b / GIB,
            latency_ns=spec.latency / NS,
        )
    return result
