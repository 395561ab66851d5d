"""Figure 20: join selectivity (0-100%).

Workload A (34 GiB); the match rate is varied by pointing a fraction of
S's foreign keys outside R's domain.  Series: CPU (NOPA), GPU over
PCI-e 3.0 and NVLink 2.0, each with the hash table in GPU and in CPU
memory.  The SoA value column is only touched on matches, at cache-line
granularity — the paper's "at 10% selectivity, 81.5% of values are
loaded" effect, which the functional layer measures exactly.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.common import Claim, FigureResult, Series, falling, price_series
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_selectivity

PAPER = {
    # The text's anchor points: the largest decrease (30%) is NVLink
    # with a GPU-memory table; PCI-e with a CPU table slows only 7%.
    "sel=0.0": {"nvlink2-gpu-ht": 4.6, "pcie3-cpu-ht": 0.06, "cpu": 0.55},
    "sel=1.0": {"nvlink2-gpu-ht": 3.2, "pcie3-cpu-ht": 0.056, "cpu": 0.5},
    "sel=0.1": {"value_lines_loaded_pct": 81.5},
}

SELECTIVITIES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)

_THROUGHPUTS = ("cpu", "nvlink2-gpu-ht", "nvlink2-cpu-ht", "pcie3-gpu-ht", "pcie3-cpu-ht")


def _drop(r: FigureResult, series: str) -> float:
    return 1 - r.value("sel=1.0", series) / r.value("sel=0.0", series)


CLAIMS = (
    Claim("Throughput never rises with selectivity, in every configuration",
          lambda r: all(falling(r.series(series)) for series in _THROUGHPUTS)),
    Claim("NVLink 2.0 with a GPU-memory table drops pronouncedly: 20-60% (paper: ~30%, the "
          "largest)",
          lambda r: 0.2 < _drop(r, "nvlink2-gpu-ht") < 0.6),
    Claim("PCI-e 3.0 with a CPU-memory table drops under 60% (paper: 7%)",
          lambda r: _drop(r, "pcie3-cpu-ht") < 0.6),
    Claim("At 10% selectivity 81.5% of the value cache lines are loaded (within 1 point); "
          "none at 0%, all at 100%",
          lambda r: abs(r.value("sel=0.1", "value_lines_loaded_pct") - 81.5) <= 1.0
          and r.value("sel=0.0", "value_lines_loaded_pct") == 0.0
          and r.value("sel=1.0", "value_lines_loaded_pct") == 100.0),
)


def run(
    scale: float = 2.0**-12, selectivities: Iterable[float] = SELECTIVITIES
) -> FigureResult:
    result = FigureResult(
        figure="Figure 20",
        title="Join selectivity sweep (workload A)",
        paper=PAPER,
        notes=(
            "Throughput decreases with selectivity; the drop is largest "
            "for NVLink with an in-GPU table. Matched values are loaded "
            "at cache-line granularity (81.5% of value lines at 10%)."
        ),
    )
    ibm = ibm_ac922()
    intel = intel_xeon_v100()
    cpu = NoPartitioningJoin(ibm, hash_table_placement="cpu")
    series = [Series("cpu", cpu, {"processor": "cpu0"})] + [
        Series(
            f"{link}-{table}-ht",
            NoPartitioningJoin(machine, hash_table_placement=table, transfer_method=method),
        )
        for link, machine, method in (("nvlink2", ibm, "coherence"), ("pcie3", intel, "zero_copy"))
        for table in ("gpu", "cpu")
    ]
    for selectivity in selectivities:
        workload = workload_selectivity(selectivity, scale=scale)
        execution = cpu.execute(workload.r, workload.s)
        values = {}
        for name, res in price_series(execution, workload, series).items():
            values[name] = res.throughput_gtuples
            if name == "nvlink2-gpu-ht":
                values["value_lines_loaded_pct"] = 100.0 * res.payload_lines_loaded
        result.add(f"sel={selectivity}", **values)
    return result
