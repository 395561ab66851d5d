"""The figure registry, and a sweep that prints paper-vs-simulated tables.

Usage::

    python -m repro.bench.run_all                      # all figures

:data:`FIGURES` is the one ordered list of figure runners: ``python -m
repro figures`` / ``figure KEY``, this sweep, ``repro.bench.report``,
``repro.bench.export`` and the paper-anchors test all read it.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

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
from repro.bench.common import FigureResult


@dataclass(frozen=True)
class Figure:
    """One registry entry: a runner, called with its own defaults."""

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


FIGURES = (
    Figure("1", fig01_bandwidth.run, fig01_bandwidth.PAPER),
    Figure("3", fig03_microbench.run, fig03_microbench.PAPER),
    Figure("11", fig11_placement.run),
    Figure("12", fig12_transfer_methods.run, fig12_transfer_methods.PAPER),
    Figure("13", fig13_data_locality.run, fig13_data_locality.PAPER),
    Figure("14", fig14_hashtable_locality.run, fig14_hashtable_locality.PAPER),
    Figure("15", fig15_tpch_q6.run, fig15_tpch_q6.PAPER),
    Figure("16", fig16_probe_scaling.run, fig16_probe_scaling.PAPER),
    Figure("17", fig17_build_scaling.run, fig17_build_scaling.PAPER),
    Figure("18", fig18_build_probe_ratio.run, fig18_build_probe_ratio.PAPER),
    Figure("19", fig19_skew.run, fig19_skew.PAPER),
    Figure("19", fig19_skew.run_splits),
    Figure("20", fig20_selectivity.run, fig20_selectivity.PAPER),
    Figure("21", fig21_coprocessing.run, fig21_coprocessing.PAPER),
    Figure(
        "21b", fig21_coprocessing.run_phases, fig21_coprocessing.PAPER_PHASES
    ),
    Figure("ablations", ablations.run_batch_size),
    Figure("ablations", ablations.run_layout),
    Figure("ablations", ablations.run_hash_scheme),
    Figure("ablations", ablations.run_hybrid_vs_spill),
    Figure("multi-gpu", multi_gpu.run),
    Figure("table1", table01_methods.run, sweep=False),
    Figure("sensitivity", sensitivity.run, sweep=False),
)


def sweep_results() -> Iterator[FigureResult]:
    """Run the sweep's figures in registry order, yielding each result."""
    for figure in FIGURES:
        if figure.sweep:
            yield figure.runner()


def main(argv: Optional[List[str]] = None) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for result in sweep_results():
        print(result.render())
        print()


if __name__ == "__main__":
    main()
