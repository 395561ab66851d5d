"""Record every registry entry's cells into ``figure_cells.json``.

Each entry of ``repro.bench.run_all.FIGURES`` is stored in registry
order, in the format of ``repro.bench.export.figure_to_dict`` (``table1``,
a plain ``Table``, as its rendered text).  ``test_paper_anchors.py``
compares the registry's results against it at full precision.  Run from
the repo root against the code revision whose cells should become the
reference::

    PYTHONPATH=src:. python tests/integration/record_figure_cells.py

A change that moves a cell on purpose re-records the file; its diff
names the cell.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.common import FigureResult
from repro.bench.export import figure_to_dict
from repro.bench.run_all import FIGURES

OUT = Path(__file__).parent / "figure_cells.json"


def main() -> int:
    entries = []
    for figure in FIGURES:
        result = figure.runner()
        if isinstance(result, FigureResult):
            entries.append({"key": figure.key, "result": figure_to_dict(result)})
        else:
            entries.append({"key": figure.key, "text": result.render()})
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} entries -> {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
