"""Table 1: the implemented transfer-method taxonomy is the paper's.

Every figure runner is checked once, at its registry defaults, by
``tests/integration/test_paper_anchors.py``: well-formedness, anchors
and the shape claims stated beside each figure's ``PAPER``.
"""

from repro.bench.table01_methods import PAPER, rows


def test_table01_rows():
    by_name = {row["method"]: row for row in rows()}
    assert set(by_name) == set(PAPER)
    for name, cells in PAPER.items():
        row = by_name[name]
        assert (row["semantics"], row["level"], row["granularity"], row["memory"]) == cells
