"""Figure 15: TPC-H query 6 scaling (SF 100-1000).

Branching and predicated variants on the POWER9 CPU, the GPU over
NVLink 2.0, and the GPU over PCI-e 3.0; 8.9-89.4 GiB working sets read
from CPU memory (nothing cached in GPU memory).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.common import Claim, FigureResult
from repro.core.ops.q6 import TpchQ6
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.transfer.methods import get_method
from repro.workloads.tpch import lineitem_q6

#: approximate curve readings at SF 1000 (the figure reports curves,
#: not labeled points): CPU is highest, NVLink branching beats NVLink
#: predication, PCI-e is 9.8-15.8x below.
PAPER = {
    "SF1000": {
        "cpu-predicated": 6.9,
        "cpu-branching": 4.0,
        "nvlink-branching": 4.1,
        "nvlink-predicated": 3.7,
        "pcie-branching": 0.5,
        "pcie-predicated": 0.4,
    }
}

SCALE_FACTORS = (100, 250, 500, 750, 1000)


def _best(r: FigureResult, processor: str) -> float:
    """The faster Q6 variant of one processor at SF1000."""
    return max(r.value("SF1000", f"{processor}-{variant}")
               for variant in ("branching", "predicated"))


CLAIMS = (
    Claim("The CPU achieves the highest throughput overall",
          lambda r: _best(r, "cpu") > _best(r, "nvlink")),
    Claim("NVLink 2.0 considerably closes the gap: within 2x of the CPU (paper: 67%)",
          lambda r: _best(r, "cpu") / _best(r, "nvlink") < 2.0),
    Claim("NVLink 2.0 is over 4x PCI-e 3.0 (paper: up to 9.8x)",
          lambda r: _best(r, "nvlink") / _best(r, "pcie") > 4),
    Claim("Branching beats predication on the GPU (transfer skipping), not on the CPU (SIMD)",
          lambda r: r.value("SF1000", "nvlink-branching") > r.value("SF1000", "nvlink-predicated")
          and r.value("SF1000", "cpu-predicated") > r.value("SF1000", "cpu-branching")),
    Claim("Throughput is flat (within 5%) across scale factors",
          lambda r: all(max(r.series(s)) / min(r.series(s)) < 1.05
                        for s in ("cpu-predicated", "nvlink-predicated", "pcie-predicated"))),
)


def run(scale: float = 2.0**-10, scale_factors=SCALE_FACTORS) -> FigureResult:
    result = FigureResult(
        figure="Figure 15",
        title="TPC-H Q6 scaling (branching vs. predication)",
        paper=PAPER,
        notes=(
            "CPU achieves the highest throughput (up to 67% over NVLink); "
            "NVLink 2.0 reaches up to 9.8x PCI-e 3.0; branching beats "
            "predication on the GPU because low selectivity skips "
            "transfers."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    configs = [
        ("cpu-predicated", ibm, "cpu0", "predicated", "coherence"),
        ("cpu-branching", ibm, "cpu0", "branching", "coherence"),
        ("nvlink-branching", ibm, "gpu0", "branching", "coherence"),
        ("nvlink-predicated", ibm, "gpu0", "predicated", "coherence"),
        ("pcie-branching", intel, "gpu0", "branching", "zero_copy"),
        ("pcie-predicated", intel, "gpu0", "predicated", "zero_copy"),
    ]
    for sf in scale_factors:
        workload = lineitem_q6(scale_factor=sf, scale=scale)
        result.add(f"SF{sf}", **_series(ibm, workload, configs))
    return result


def _series(ibm, workload, configs) -> Dict[str, float]:
    """One row: every configuration priced from one execution."""
    execution = TpchQ6(ibm).execute(workload)
    values = {}
    for series, machine, proc, variant, method in configs:
        op = TpchQ6(machine, variant=variant, transfer_method=method)
        # Allocate lineitem as the transfer method requires (Table 1).
        wl = workload.placed(
            workload.location, kind=get_method(method).required_kind
        )
        values[series] = op.price(execution, wl, processor=proc).throughput_gtuples
    return values
