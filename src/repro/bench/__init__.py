"""Benchmark harness: one module per table/figure of the evaluation.

Every figure module exposes

* ``PAPER`` — the values the paper reports (read off its figures), the
  one home of that figure's anchors, and
* ``run(...) -> FigureResult`` — regenerates the figure's rows on the
  simulated machines next to those anchors.

``repro.bench.run_all.FIGURES`` is the one ordered list of runners: the
CLI, the sweep, the markdown report, the export and the paper-anchors
test enumerate figures through it.  The pytest-benchmark targets in
``benchmarks/`` call ``run`` and assert the *shape* claims (who wins, by
roughly what factor, where crossovers fall); ``docs/report_generated.md``
records paper-vs-simulated numbers.
"""

from repro.bench.common import FigureResult, SeriesRow

__all__ = ["FigureResult", "SeriesRow"]
