"""Tier 1's paper check: every registry figure, run once, against its
anchors and its claims.

Each entry of ``repro.bench.run_all.FIGURES`` runs once with its own
defaults (the ``registry_result`` fixture caches by registry index,
because keys such as ``"19"`` and ``"ablations"`` repeat).  On that one
result:

* it is well formed: a ``FigureResult`` with rows, every value finite
  and non-negative, and it renders;
* for an anchored entry, the mean and max relative deviation from the
  paper (``repro.bench.report.deviation_stats``, the numbers
  ``docs/report_generated.md`` prints) stay within ``BUDGET``, and every
  anchor names a simulated cell;
* every claim its figure module states holds;
* its cells equal the recording in ``figure_cells.json``: the same row
  labels, the same series in each row in the same order, and values at
  full precision (``record_figure_cells.py`` re-records it).

Deviations are deterministic, so each budget is the measured value
rounded up to the next 0.1 percentage point: tighten it freely; loosen
it only with a mechanism written down in EXPERIMENTS.md.  A claim that
fails at the registry's defaults is a finding: ``KNOWN_MISSES`` gives
its reason (EXPERIMENTS.md, "Known deviations", explains it) and it runs
as a strict xfail, so fixing it fails the test until the entry goes.
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench.common import FigureResult
from repro.bench.export import figure_to_dict
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

#: claim text -> why it fails at the registry's defaults.
KNOWN_MISSES = {
    "Throughput is monotone in the Zipf exponent (1% slack)": (
        "Figure 19: PCI-e 3.0 reads 0.18087 / 0.17847 / 0.17836 at zipf "
        "1.25 / 1.5 / 1.75, a 1.3% fall; the mechanism is still to be found"
    ),
}

#: registry index -> the recorded cells (``record_figure_cells.py``).
FIGURE_CELLS = json.loads((Path(__file__).parent / "figure_cells.json").read_text())

IDS = [f"{index}-{figure.key}" for index, figure in enumerate(FIGURES)]
ANCHORED = {figure.key: index for index, figure in enumerate(FIGURES) if figure.paper}
CLAIMS = [
    pytest.param(
        index,
        claim,
        id=f"{IDS[index]}-claim{number}",
        marks=[pytest.mark.xfail(strict=True, reason=KNOWN_MISSES[claim.text])]
        if claim.text in KNOWN_MISSES
        else [],
    )
    for index, figure in enumerate(FIGURES)
    for number, claim in enumerate(figure.claims)
]


@pytest.mark.parametrize("index", range(len(FIGURES)), ids=IDS)
def test_result_is_well_formed(registry_result, index):
    result = registry_result(index)
    assert result.render()
    if FIGURES[index].key == "table1":  # a plain Table: test_table01_rows
        return
    assert isinstance(result, FigureResult) and result.rows
    for row in result.rows:
        assert row.values, row.label
        assert all(math.isfinite(v) and v >= 0 for v in row.values.values()), row


@pytest.mark.parametrize("index", range(len(FIGURES)), ids=IDS)
def test_cells_match_recording(registry_result, index):
    want = FIGURE_CELLS[index]
    assert want["key"] == FIGURES[index].key
    result = registry_result(index)
    if "text" in want:  # table1
        assert result.render() == want["text"]
        return
    got = figure_to_dict(result)
    assert [row["label"] for row in got["rows"]] == [row["label"] for row in want["result"]["rows"]]
    for got_row, want_row in zip(got["rows"], want["result"]["rows"]):
        cells = want_row["simulated"]
        assert list(got_row["simulated"]) == list(cells), got_row["label"]
        for series, value in cells.items():
            assert math.isclose(
                got_row["simulated"][series], value, rel_tol=1e-9, abs_tol=1e-15
            ), f"{got['figure']} ({got_row['label']!r}, {series!r})"


def test_every_entry_is_recorded():
    assert len(FIGURE_CELLS) == len(FIGURES)


@pytest.mark.parametrize("key", ANCHORED)
def test_figure_within_budget(registry_result, key):
    result = registry_result(ANCHORED[key])
    count, mean, worst = deviation_stats(result)
    anchors, mean_budget, max_budget = BUDGET[result.figure]
    assert count == anchors, f"{result.figure}: {count} anchors, budget {anchors}"
    assert mean <= mean_budget and worst <= max_budget, (
        f"{result.figure}: mean {mean:.2%} / max {worst:.2%} exceeds the "
        f"budget {mean_budget:.1%} / {max_budget:.1%}"
    )


@pytest.mark.parametrize("key", ANCHORED)
def test_every_anchor_names_a_simulated_cell(registry_result, key):
    result = registry_result(ANCHORED[key])
    assert result.paper is FIGURES[ANCHORED[key]].paper
    cells = {(row.label, series) for row in result.rows for series in row.values}
    missing = [
        (label, series)
        for label, anchors in result.paper.items()
        for series in anchors
        if (label, series) not in cells
    ]
    assert not missing, f"{result.figure}: anchors without a cell {missing}"


@pytest.mark.parametrize("index,claim", CLAIMS)
def test_claim_holds(registry_result, index, claim):
    assert claim.holds(registry_result(index)), claim.text


def test_anchored_figures_match_budget(registry_result):
    assert {registry_result(index).figure for index in ANCHORED.values()} == set(BUDGET)


def test_every_known_miss_names_one_claim():
    texts = [claim.text for figure in FIGURES for claim in figure.claims]
    assert len(set(texts)) == len(texts)
    assert set(KNOWN_MISSES) <= set(texts)
