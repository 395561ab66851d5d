"""Figure 15: TPC-H query 6 scaling (SF 100-1000).

Branching and predicated variants on the POWER9 CPU, the GPU over
NVLink 2.0, and the GPU over PCI-e 3.0; 8.9-89.4 GiB working sets read
from CPU memory (nothing cached in GPU memory).
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, price_series, throughputs
from repro.core.ops.q6 import TpchQ6
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
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
    cpu = {"processor": "cpu0"}
    series = [
        Series("cpu-predicated", TpchQ6(ibm, variant="predicated"), cpu),
        Series("cpu-branching", TpchQ6(ibm, variant="branching"), cpu),
        Series("nvlink-branching", TpchQ6(ibm, variant="branching")),
        Series("nvlink-predicated", TpchQ6(ibm, variant="predicated")),
        Series("pcie-branching",
               TpchQ6(intel, variant="branching", transfer_method="zero_copy")),
        Series("pcie-predicated",
               TpchQ6(intel, variant="predicated", transfer_method="zero_copy")),
    ]
    q6 = TpchQ6(ibm)
    for sf in scale_factors:
        # An execution holds its table's columns: none outlives its row.
        lineitem = lineitem_q6(scale_factor=sf, scale=scale)
        results = price_series(q6.execute(lineitem), (lineitem,), series)
        result.add(f"SF{sf}", **throughputs(results))
    return result
