"""Every bench module runs and returns a well-formed result.

The deep shape assertions live in ``benchmarks/``; these tests pin the
harness *plumbing*: each module's ``run`` returns a well-formed
FigureResult with the expected rows.  Paper-anchor coverage is checked
by ``tests/integration/test_paper_anchors.py``.
"""

import pytest

from repro.bench import (
    ablations,
    fig01_bandwidth,
    fig11_placement,
    fig03_microbench,
    fig12_transfer_methods,
    fig13_data_locality,
    fig14_hashtable_locality,
    fig15_tpch_q6,
    fig16_probe_scaling,
    fig17_build_scaling,
    fig18_build_probe_ratio,
    fig19_skew,
    fig20_selectivity,
    fig21_coprocessing,
    multi_gpu,
)
from repro.bench.common import FigureResult

TINY = 2.0**-14


@pytest.mark.parametrize(
    "runner,kwargs,expected_rows",
    [
        (fig01_bandwidth.run, {}, {"memory", "nvlink2", "pcie3"}),
        (
            fig03_microbench.run,
            {},
            {"nvlink2", "pcie3", "upi", "xbus", "xeon-memory",
             "power9-memory", "gpu-memory"},
        ),
        (
            fig12_transfer_methods.run,
            {"scale": TINY},
            set(fig12_transfer_methods.METHOD_ORDER),
        ),
        (fig13_data_locality.run, {"scale": TINY}, {"A", "B", "C"}),
        (fig14_hashtable_locality.run, {"scale": TINY}, {"A", "B", "C"}),
        (
            fig15_tpch_q6.run,
            {"scale": 2.0**-10, "scale_factors": (100, 1000)},
            {"SF100", "SF1000"},
        ),
        (
            fig16_probe_scaling.run,
            {"scale": TINY, "probe_millions": (1024, 8192)},
            {"1024M", "8192M"},
        ),
        (
            fig17_build_scaling.run,
            {"scale": TINY, "tuple_millions": (512, 2048)},
            {"512M", "2048M"},
        ),
        (
            fig18_build_probe_ratio.run,
            {"scale": TINY, "ratios": (1, 16)},
            {"1:1", "1:16"},
        ),
        (
            fig19_skew.run,
            {"scale": TINY, "exponents": (0.0, 1.5)},
            {"zipf=0.0", "zipf=1.5"},
        ),
        (
            fig20_selectivity.run,
            {"scale": TINY, "selectivities": (0.0, 1.0)},
            {"sel=0.0", "sel=1.0"},
        ),
        (fig21_coprocessing.run, {"scale": TINY}, {"A", "B", "C"}),
        (
            multi_gpu.run,
            {"scale": TINY},
            {"A (2 GiB table)", "C 2048M (32 GiB table)", "C 2048M scaling"},
        ),
    ],
)
def test_module_returns_wellformed_result(runner, kwargs, expected_rows):
    result = runner(**kwargs)
    assert isinstance(result, FigureResult)
    assert {row.label for row in result.rows} == expected_rows
    assert result.figure
    assert result.series_names()
    # Every row has at least one finite positive value.
    for row in result.rows:
        assert row.values
        assert all(v >= 0 for v in row.values.values())
    # Rendering never crashes.
    assert result.render()


def test_fig11_placement_module():
    result = fig11_placement.run(scale=TINY)
    assert isinstance(result, FigureResult)
    labels = {row.label for row in result.rows}
    assert "cache-sized (4 MiB)" in labels
    for row in result.rows:
        assert "chosen" in row.values and "best" in row.values
        assert row.values["chosen"] <= row.values["best"] * 1.001


def test_table01_rows():
    from repro.bench.table01_methods import PAPER, rows

    assert {row["method"] for row in rows()} == set(PAPER)


def test_ablation_runners_return_results():
    for runner in (
        lambda: ablations.run_batch_size(scale=TINY, batches=(1, 16)),
        lambda: ablations.run_layout(scale=TINY),
        lambda: ablations.run_hash_scheme(scale=TINY),
    ):
        result = runner()
        assert isinstance(result, FigureResult)
        assert result.rows


def test_fig19_split_sweep():
    splits = fig19_skew.run_splits(scale=TINY, splits=(0.0, 1.0))
    assert isinstance(splits, FigureResult)
    assert [row.label for row in splits.rows] == ["0% GPU", "100% GPU"]
    assert splits.value("100% GPU", "nvlink2") > splits.value("0% GPU", "nvlink2")


def test_fig21_phase_runner():
    phases = fig21_coprocessing.run_phases(scale=TINY)
    assert isinstance(phases, FigureResult)
    assert phases.paper is fig21_coprocessing.PAPER_PHASES
    assert {row.label for row in phases.rows} == {"cpu", "het", "gpu+het", "gpu"}
    for row in phases.rows:
        assert row.values["build"] > 0 and row.values["probe"] > 0
