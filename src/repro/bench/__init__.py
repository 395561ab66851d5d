"""Benchmark harness: one module per table/figure of the evaluation.

Every figure module exposes

* ``PAPER`` — the values the paper reports (read off its figures), the
  one home of that figure's anchors,
* ``CLAIMS`` — beside ``PAPER``, the *shape* claims (who wins, by
  roughly what factor, where crossovers fall) as
  :class:`~repro.bench.common.Claim` predicates over the result, and
* ``run(...) -> FigureResult`` — regenerates the figure's rows on the
  simulated machines next to those anchors.

A figure executes each input once and prices that execution under its
configurations through one loop,
:func:`~repro.bench.common.price_series`: each
:class:`~repro.bench.common.Series` is a facade (a join, or Figure 15's
Q6 scan) plus its ``price`` arguments; the loop allocates the inputs as
the facade's transfer method requires (Table 1) and leaves no cell for
a configuration that cannot run.  No figure module places its inputs or
catches those errors itself.

``repro.bench.run_all.FIGURES`` is the one ordered list of runners: the
CLI, the sweep, the markdown report, the export and the paper-anchors
test enumerate figures through it.  The test runs each entry once and
checks its anchors and claims; ``docs/report_generated.md`` records
paper-vs-simulated numbers and a verdict per claim.
"""

from repro.bench.common import FigureResult, SeriesRow

__all__ = ["FigureResult", "SeriesRow"]
