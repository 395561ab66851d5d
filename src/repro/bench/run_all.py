"""The figure registry, and a sweep that prints paper-vs-simulated tables.

Usage::

    python -m repro.bench.run_all                      # all figures

:data:`FIGURES` is the one ordered list of figure runners: ``python -m
repro figures`` / ``figure KEY``, this sweep, ``repro.bench.report``,
``repro.bench.export`` and the paper-anchors test all read it.  Each
entry carries its figure's shape claims, stated in the figure module
next to its anchors; the report prints a verdict per claim and the
paper-anchors test checks them.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench import (
    ablations,
    multi_gpu,
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
    sensitivity,
    table01_methods,
)
from repro.bench.common import Claim, FigureResult


@dataclass(frozen=True)
class Figure:
    """One registry entry: a runner, called without arguments."""

    #: ``python -m repro figure KEY``; entries sharing a key print together.
    key: str
    #: returns a :class:`FigureResult` (``table1``: a ``Table``).
    runner: Callable[[], Any]
    #: the anchors the runner's result carries (its module's dict); the
    #: paper-anchors test budgets every entry that has them.
    paper: Optional[Dict[str, Dict[str, float]]] = None
    #: in the full sweep (so in the report and the export); the others
    #: run only by key.
    sweep: bool = True
    #: the shapes the paper states about the result (its module's tuple).
    claims: Tuple[Claim, ...] = ()


FIGURES = (
    Figure("1", fig01_bandwidth.run, fig01_bandwidth.PAPER, claims=fig01_bandwidth.CLAIMS),
    Figure("3", fig03_microbench.run, fig03_microbench.PAPER, claims=fig03_microbench.CLAIMS),
    Figure("11", fig11_placement.run, claims=fig11_placement.CLAIMS),
    Figure("12", fig12_transfer_methods.run, fig12_transfer_methods.PAPER,
           claims=fig12_transfer_methods.CLAIMS),
    Figure("13", fig13_data_locality.run, fig13_data_locality.PAPER,
           claims=fig13_data_locality.CLAIMS),
    Figure("14", fig14_hashtable_locality.run, fig14_hashtable_locality.PAPER,
           claims=fig14_hashtable_locality.CLAIMS),
    Figure("15", fig15_tpch_q6.run, fig15_tpch_q6.PAPER, claims=fig15_tpch_q6.CLAIMS),
    Figure("16", fig16_probe_scaling.run, fig16_probe_scaling.PAPER,
           claims=fig16_probe_scaling.CLAIMS),
    Figure("17", fig17_build_scaling.run, fig17_build_scaling.PAPER,
           claims=fig17_build_scaling.CLAIMS),
    Figure("18", fig18_build_probe_ratio.run, fig18_build_probe_ratio.PAPER,
           claims=fig18_build_probe_ratio.CLAIMS),
    Figure("19", fig19_skew.run, fig19_skew.PAPER, claims=fig19_skew.CLAIMS),
    Figure("19", functools.partial(fig19_skew.run, gpu_split=1.0),
           claims=fig19_skew.GPU_RESIDENT_CLAIMS),
    Figure("19", fig19_skew.run_splits, claims=fig19_skew.SPLIT_CLAIMS),
    Figure("20", fig20_selectivity.run, fig20_selectivity.PAPER, claims=fig20_selectivity.CLAIMS),
    Figure("21", fig21_coprocessing.run, fig21_coprocessing.PAPER,
           claims=fig21_coprocessing.CLAIMS),
    Figure("21b", fig21_coprocessing.run_phases, fig21_coprocessing.PAPER_PHASES,
           claims=fig21_coprocessing.PHASE_CLAIMS),
    Figure("ablations", ablations.run_batch_size, claims=ablations.BATCH_SIZE_CLAIMS),
    Figure("ablations", ablations.run_layout, claims=ablations.LAYOUT_CLAIMS),
    Figure("ablations", ablations.run_hash_scheme, claims=ablations.HASH_SCHEME_CLAIMS),
    Figure("ablations", ablations.run_hybrid_vs_spill, claims=ablations.HYBRID_VS_SPILL_CLAIMS),
    Figure("multi-gpu", multi_gpu.run, claims=multi_gpu.CLAIMS),
    Figure("table1", table01_methods.run, sweep=False),
    Figure("sensitivity", sensitivity.run, sweep=False, claims=sensitivity.CLAIMS),
)


def sweep_results() -> Iterator[Tuple[Figure, FigureResult]]:
    """Run the sweep's figures in registry order, yielding each entry
    with its result."""
    for figure in FIGURES:
        if figure.sweep:
            yield figure, figure.runner()


def main(argv: Optional[List[str]] = None) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for _, result in sweep_results():
        print(result.render())
        print()


if __name__ == "__main__":
    main()
