"""Figure 21: cooperative CPU+GPU scale-up.

Workloads A/B/C (Table 2, up to 34 GiB) under four execution
strategies: CPU-only (NOPA), Het (shared table in CPU memory),
GPU+Het (local table copies), and GPU-only.  Panel (b) breaks down the
build and probe phases of workload C.
"""

from __future__ import annotations

from typing import Tuple

from repro.bench.common import Claim, FigureResult, Series, near, price_series, throughputs
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a, workload_b, workload_c

PAPER = {
    "A": {"cpu": 0.52, "het": 0.82, "gpu+het": 2.92, "gpu": 3.81},
    "B": {"cpu": 0.50, "het": 1.64, "gpu+het": 4.85, "gpu": 4.16},
    "C": {"cpu": 0.54, "het": 0.49, "gpu+het": 0.86, "gpu": 2.34},
}

#: Figure 21b (workload C, seconds per phase).
PAPER_PHASES = {
    "cpu": {"build": 2.12, "probe": 1.68},
    "het": {"build": 2.15, "probe": 1.14},
    "gpu+het": {"build": 0.63, "probe": 0.25},
    "gpu": {"build": 0.24, "probe": 0.25},
}

CLAIMS = (
    Claim("Using a GPU never decreases throughput: every strategy is above 85% of CPU-only",
          lambda r: all(r.value(wl, strategy) > 0.85 * r.value(wl, "cpu")
                        for wl in "ABC" for strategy in ("het", "gpu+het", "gpu"))),
    Claim("A: adding a GPU always helps; GPU-only is fastest (within 5%)",
          lambda r: r.value("A", "cpu") < r.value("A", "het") < r.value("A", "gpu+het")
          <= r.value("A", "gpu") * 1.05),
    Claim("A: GPU-only is over 5x CPU-only (paper: 7.3x)",
          lambda r: r.value("A", "gpu") / r.value("A", "cpu") > 5),
    Claim("B: cooperative GPU+Het beats GPU-only; Het is over 1.8x CPU-only (paper: 3.2x)",
          lambda r: r.value("B", "gpu+het") > r.value("B", "gpu")
          and r.value("B", "het") > 1.8 * r.value("B", "cpu")),
    Claim("C: build contention eats Het's gain (within 20% of CPU-only); GPU-only is over 3x",
          lambda r: near(r.value("C", "het"), r.value("C", "cpu"), 0.2)
          and r.value("C", "gpu") / r.value("C", "cpu") > 3),
)

#: claims of ``run_phases``.
PHASE_CLAIMS = (
    Claim("Every strategy spends time building and probing",
          lambda r: all(row.values["build"] > 0 and row.values["probe"] > 0 for row in r.rows)),
    Claim("Build: a shared table (Het) is no faster than one CPU (5% slack), slower than the GPU",
          lambda r: r.value("het", "build") >= 0.95 * r.value("cpu", "build")
          and r.value("het", "build") > r.value("gpu", "build")),
    Claim("Build: GPU+Het pays the synchronous table copy on top of the GPU build",
          lambda r: r.value("gpu+het", "build") > r.value("gpu", "build")),
    Claim("Probe: adding a GPU helps, processor-local tables (GPU+Het) beat the shared one "
          "(Het), the GPU alone is no slower than Het",
          lambda r: r.value("het", "probe") < r.value("cpu", "probe")
          and r.value("gpu+het", "probe") < r.value("het", "probe")
          and r.value("gpu", "probe") <= r.value("het", "probe")),
)


def run(scale: float = 2.0**-12) -> FigureResult:
    result = FigureResult(
        figure="Figure 21a",
        title="CPU/GPU co-processing strategies",
        paper=PAPER,
        notes=(
            "Using a GPU never hurts: every GPU strategy matches or beats "
            "CPU-only. GPU-only wins on A and C; the cooperative GPU+Het "
            "wins on B (cache-sized table, local copies)."
        ),
    )
    machine = ibm_ac922()
    workloads = {
        "A": workload_a(scale=scale),
        "B": workload_b(scale=scale),
        "C": workload_c(scale=scale),
    }
    for name, workload in workloads.items():
        inputs = (workload.r, workload.s)
        execution = NoPartitioningJoin(machine).execute(*inputs)
        result.add(name, **throughputs(price_series(execution, inputs, _series(machine))))
    return result


def run_phases(scale: float = 2.0**-12) -> FigureResult:
    """Figure 21b: per-phase seconds for workload C, one row per strategy."""
    result = FigureResult(
        figure="Figure 21b",
        title="Workload C build/probe seconds per phase",
        unit="s",
        paper=PAPER_PHASES,
        notes=(
            "Two processors on one shared table (Het) build slower than "
            "one; GPU+Het pays the synchronous table copy; processor-local "
            "tables probe fastest."
        ),
    )
    machine, workload = ibm_ac922(), workload_c(scale=scale)
    inputs = (workload.r, workload.s)
    execution = NoPartitioningJoin(machine).execute(*inputs)
    for strategy, res in price_series(execution, inputs, _series(machine)).items():
        result.add(strategy, build=res.build_cost.seconds, probe=res.probe_cost.seconds)
    return result


def _series(machine) -> Tuple[Series, ...]:
    """CPU-only, Het, GPU+Het and GPU-only."""
    return (
        Series("cpu", NoPartitioningJoin(machine, hash_table_placement="cpu"),
               {"processor": "cpu0"}),
        Series("het", CoopJoin(machine, strategy="het")),
        Series("gpu+het", CoopJoin(machine, strategy="gpu+het")),
        Series("gpu", NoPartitioningJoin(machine, hash_table_placement="gpu")),
    )
