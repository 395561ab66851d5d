"""Figure 21: CPU/GPU co-processing scale-up."""

import pytest

from benchmarks.conftest import run_figure
from repro.bench import fig21_coprocessing


def test_fig21a_strategies(benchmark, bench_scale):
    result = run_figure(benchmark, fig21_coprocessing.run, scale=bench_scale)

    # "Using a GPU always achieves the same or better throughput than
    # the CPU-only strategy, and never decreases throughput."
    for workload in ("A", "B", "C"):
        cpu = result.value(workload, "cpu")
        for strategy in ("het", "gpu+het", "gpu"):
            assert result.value(workload, strategy) > 0.85 * cpu, (
                workload,
                strategy,
            )

    # A: adding a GPU always helps; GPU-only is fastest.
    a = {s: result.value("A", s) for s in ("cpu", "het", "gpu+het", "gpu")}
    assert a["cpu"] < a["het"] < a["gpu+het"] <= a["gpu"] * 1.05
    assert a["gpu"] / a["cpu"] > 5  # paper: 7.3x

    # B: the cooperative GPU+Het strategy beats even GPU-only, and Het
    # gives a clear cooperative speedup (paper: 3.2x; our sim ~2x).
    assert result.value("B", "gpu+het") > result.value("B", "gpu")
    assert result.value("B", "het") > 1.8 * result.value("B", "cpu")

    # C: Het is within ~15% of CPU-only (build contention eats the
    # gain); GPU-only is several times faster.
    assert result.value("C", "het") == pytest.approx(
        result.value("C", "cpu"), rel=0.2
    )
    assert result.value("C", "gpu") / result.value("C", "cpu") > 3


def test_fig21b_phase_breakdown(benchmark, bench_scale):
    result = run_figure(
        benchmark, fig21_coprocessing.run_phases, scale=bench_scale
    )
    phases = {row.label: row.values for row in result.rows}

    # Build: two processors on a shared table (Het) are slower than one.
    assert phases["het"]["build"] >= 0.95 * phases["cpu"]["build"]
    assert phases["het"]["build"] > phases["gpu"]["build"]

    # GPU+Het pays the synchronous table copy on top of the GPU build.
    assert phases["gpu+het"]["build"] > phases["gpu"]["build"]

    # Probe: adding a GPU to the CPU helps; GPU alone is fastest;
    # processor-local tables (GPU+Het) beat the shared table (Het).
    assert phases["het"]["probe"] < phases["cpu"]["probe"]
    assert phases["gpu+het"]["probe"] < phases["het"]["probe"]
    assert phases["gpu"]["probe"] <= phases["het"]["probe"]
