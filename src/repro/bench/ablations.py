"""Ablation benches for the design choices DESIGN.md calls out.

* GPU morsel-batch size (Section 6.1's "we empirically tune the batch
  size"): sweep the batch and report co-processing throughput.
* SoA vs. AoS hash-table layout under varying selectivity (the layout
  behind Figure 20).
* Perfect hashing vs. open addressing vs. chaining (Section 7.1 uses
  perfect hashing; how much does it matter?).
* Hybrid hash table vs. whole-table CPU spill at varying table sizes
  (the Section 5.3 design choice).
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.common import Claim, FigureResult, Series, near, price_series, throughputs
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import (
    workload_a,
    workload_ratio,
    workload_selectivity,
)

BATCHES = (1, 2, 4, 8, 16, 64, 256)

BATCH_SIZE_CLAIMS = (
    Claim("Tiny batches lose to dispatch latency",
          lambda r: r.value("batch=1", "throughput") < max(r.series("throughput"))),
    Claim("The tuned batch is within 2% of the best fixed batch",
          lambda r: near(r.value("batch=auto", "throughput"), max(r.series("throughput")), 0.02)),
)

LAYOUT_CLAIMS = (
    Claim("At zero selectivity the layouts tie (within 2%): only keys are probed",
          lambda r: near(r.value("sel=0.0", "soa") / r.value("sel=0.0", "aos"), 1.0, 0.02)),
    Claim("At full selectivity AoS wins by over 1.3x: key and value in one access",
          lambda r: r.value("sel=1.0", "aos") > 1.3 * r.value("sel=1.0", "soa")),
)

HASH_SCHEME_CLAIMS = (
    Claim("Perfect hashing (the paper's setup) is the fastest scheme",
          lambda r: r.value("perfect", "throughput") > max(
              r.value("open_addressing", "throughput"), r.value("chaining", "throughput"))),
    Claim("Open addressing stays within 25% of perfect hashing",
          lambda r: r.value("open_addressing", "throughput")
          > 0.75 * r.value("perfect", "throughput")),
    Claim("Perfect hashing probes once per lookup, open addressing more",
          lambda r: r.value("perfect", "probes_per_lookup") == 1.0
          and r.value("open_addressing", "probes_per_lookup") > 1.0),
)

HYBRID_VS_SPILL_CLAIMS = (
    Claim("The hybrid table always matches the whole-table spill (1% slack)",
          lambda r: all(row.values["hybrid"] >= 0.99 * row.values["cpu_spill"]
                        for row in r.rows)),
    Claim("The hybrid table's advantage shrinks as its GPU fraction falls",
          lambda r: r.rows[0].values["hybrid"] / r.rows[0].values["cpu_spill"]
          > r.rows[-1].values["hybrid"] / r.rows[-1].values["cpu_spill"]),
)


def run_batch_size(
    scale: float = 2.0**-12, batches: Iterable[int] = BATCHES
) -> FigureResult:
    """Het probe throughput vs. GPU batch size (amortization vs. skew)."""
    result = FigureResult(
        figure="Ablation: batch size",
        title="GPU morsel-batch size in Het co-processing (workload A)",
        notes=(
            "Small batches drown in dispatch latency; very large batches "
            "add end-of-input skew. The auto-tuner picks the knee."
        ),
    )
    machine = ibm_ac922()
    workload = workload_a(scale=scale)
    # Small morsels make the dispatch-latency / end-of-input-skew
    # trade-off visible (with multi-million-tuple morsels every batch
    # size amortizes the 20 us round trip).
    morsel = 1 << 16
    auto = CoopJoin(machine, strategy="het", morsel_tuples=morsel)
    series = [
        Series(
            f"batch={batch}",
            CoopJoin(machine, strategy="het", gpu_batch_morsels=batch, morsel_tuples=morsel),
        )
        for batch in batches
    ] + [Series("batch=auto", auto)]
    execution = auto.execute(workload.r, workload.s)
    for label, throughput in throughputs(price_series(execution, workload, series)).items():
        result.add(label, throughput=throughput)
    return result


def run_layout(scale: float = 2.0**-12) -> FigureResult:
    """SoA vs. AoS hash-table layout across selectivities."""
    result = FigureResult(
        figure="Ablation: layout",
        title="Hash-table layout under join selectivity (NVLink, CPU table)",
        notes=(
            "The CPU-memory table makes table accesses the bottleneck: "
            "AoS fetches key and value in one access and wins at high "
            "selectivity; at zero selectivity both layouts touch only "
            "one location per probe and tie."
        ),
    )
    machine = ibm_ac922()
    # The layout changes what a probe costs, not what it finds.
    series = [
        Series(layout, NoPartitioningJoin(machine, hash_table_placement="cpu", layout=layout))
        for layout in ("soa", "aos")
    ]
    for selectivity in (0.0, 0.1, 0.5, 1.0):
        workload = workload_selectivity(selectivity, scale=scale)
        execution = NoPartitioningJoin(machine).execute(workload.r, workload.s)
        result.add(
            f"sel={selectivity}", **throughputs(price_series(execution, workload, series))
        )
    return result


def run_hash_scheme(scale: float = 2.0**-12) -> FigureResult:
    """Perfect hashing vs. open addressing vs. chaining (workload A)."""
    result = FigureResult(
        figure="Ablation: hash scheme",
        title="Hash scheme on NVLink 2.0 (workload A, GPU table)",
        notes=(
            "Perfect hashing probes exactly one slot; open addressing "
            "pays collision probes and a larger (2x) table; chaining "
            "pays pointer chases."
        ),
    )
    machine = ibm_ac922()
    workload = workload_a(scale=scale)
    for scheme in ("perfect", "open_addressing", "chaining"):
        join = NoPartitioningJoin(
            machine, hash_table_placement="gpu", hash_scheme=scheme
        )
        res = join.run(workload.r, workload.s)
        result.add(
            scheme,
            throughput=res.throughput_gtuples,
            probes_per_lookup=res.table_stats_probe_factor,
        )
    return result


def run_hybrid_vs_spill(scale: float = 2.0**-13) -> FigureResult:
    """Hybrid hash table vs. whole-table CPU spill (Section 5.3)."""
    result = FigureResult(
        figure="Ablation: hybrid",
        title="Hybrid table vs. CPU spill past the GPU-memory boundary",
        notes="The hybrid table's edge shrinks as the GPU fraction falls.",
    )
    machine = ibm_ac922()
    hybrid = NoPartitioningJoin(machine, hash_table_placement="hybrid")
    series = (
        Series("hybrid", hybrid),
        Series("cpu_spill", NoPartitioningJoin(machine, hash_table_placement="cpu")),
    )
    for millions in (1024, 1280, 1536, 2048, 3072, 4096):
        workload = workload_ratio(1, scale=scale, modeled_r=millions * 10**6)
        results = price_series(hybrid.execute(workload.r, workload.s), workload, series)
        result.add(
            f"{millions}M",
            **throughputs(results),
            gpu_fraction=results["hybrid"].placement.gpu_fraction(machine),
        )
    return result
