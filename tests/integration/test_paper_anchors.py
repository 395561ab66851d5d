"""Tripwire: every paper-anchored figure stays inside its deviation budget.

Each entry of ``repro.bench.run_all.FIGURES`` that carries paper anchors
runs once, with the arguments the report uses, and its mean and max
relative deviation from the paper (``repro.bench.report.deviation_stats``,
the numbers ``docs/report_generated.md`` prints) must stay within the
committed budget below.  Deviations are deterministic, so each budget is
the measured value rounded up to the next 0.1 percentage point: tighten
it freely; loosen it only with a mechanism written down in
EXPERIMENTS.md.
"""

import functools

import pytest

from repro.bench.report import deviation_stats
from repro.bench.run_all import FIGURES

#: figure -> (anchors, mean, max relative deviation from the paper).
BUDGET = {
    "Figure 1": (6, 0.063, 0.207),
    "Figure 3": (21, 0.0, 0.0),
    "Figure 12": (15, 0.037, 0.098),
    "Figure 13": (12, 0.089, 0.215),
    "Figure 14": (12, 0.247, 1.176),
    "Figure 15": (6, 0.475, 1.197),
    "Figure 16": (6, 0.051, 0.090),
    "Figure 17": (8, 0.281, 0.593),
    "Figure 18": (10, 0.011, 0.035),
    "Figure 19": (6, 0.232, 0.498),
    "Figure 20": (7, 0.351, 0.896),
    "Figure 21a": (12, 0.219, 1.481),
    "Figure 21b": (8, 0.354, 1.548),
}

ANCHORED = {figure.key: figure for figure in FIGURES if figure.paper}


@functools.lru_cache(maxsize=None)
def _result(key):
    return ANCHORED[key].runner()


@pytest.mark.parametrize("key", ANCHORED)
def test_figure_within_budget(key):
    result = _result(key)
    count, mean, worst = deviation_stats(result)
    anchors, mean_budget, max_budget = BUDGET[result.figure]
    assert count == anchors, f"{result.figure}: {count} anchors, budget {anchors}"
    assert mean <= mean_budget and worst <= max_budget, (
        f"{result.figure}: mean {mean:.2%} / max {worst:.2%} exceeds the "
        f"budget {mean_budget:.1%} / {max_budget:.1%}"
    )


@pytest.mark.parametrize("key", ANCHORED)
def test_every_anchor_names_a_simulated_cell(key):
    result = _result(key)
    assert result.paper is ANCHORED[key].paper
    cells = {(row.label, series) for row in result.rows for series in row.values}
    missing = [
        (label, series)
        for label, anchors in result.paper.items()
        for series in anchors
        if (label, series) not in cells
    ]
    assert not missing, f"{result.figure}: anchors without a cell {missing}"


def test_anchored_figures_match_budget():
    assert {_result(key).figure for key in ANCHORED} == set(BUDGET)
