"""Export reproduced figures as JSON or CSV for external plotting.

Exports the figure sweep of ``repro.bench.run_all``.  Usage::

    python -m repro.bench.export --format json > figures.json
    python -m repro.bench.export --format csv --out results/
"""

from __future__ import annotations

import argparse
import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.common import FigureResult


def figure_to_dict(result: FigureResult) -> Dict:
    """A FigureResult as a JSON-ready dict (sim + paper values)."""
    return {
        "figure": result.figure,
        "title": result.title,
        "unit": result.unit,
        "notes": result.notes,
        "series": result.series_names(),
        "rows": [
            {
                "label": row.label,
                "simulated": dict(row.values),
                "paper": {
                    series: result.paper_value(row.label, series)
                    for series in row.values
                    if result.paper_value(row.label, series) is not None
                },
            }
            for row in result.rows
        ],
    }


def figure_to_csv(result: FigureResult) -> str:
    """A FigureResult as CSV text (label, series, simulated, paper)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["label", "series", "simulated", "paper"])
    for row in result.rows:
        for series, value in row.values.items():
            paper = result.paper_value(row.label, series)
            writer.writerow(
                [row.label, series, value, "" if paper is None else paper]
            )
    return buffer.getvalue()


def _slug(figure: str) -> str:
    return (
        figure.lower()
        .replace(":", "")
        .replace(" ", "_")
        .replace("/", "-")
    )


def export_json(results: List[FigureResult]) -> str:
    return json.dumps([figure_to_dict(r) for r in results], indent=2)


def export_csv_files(results: List[FigureResult], out_dir: Path) -> List[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        path = out_dir / f"{_slug(result.figure)}.csv"
        path.write_text(figure_to_csv(result))
        written.append(path)
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output directory for CSV")
    args = parser.parse_args(argv)
    from repro.bench.run_all import sweep_results

    results = [result for _, result in sweep_results()]
    if args.format == "json":
        print(export_json(results))
    else:
        out_dir = Path(args.out or "figure_data")
        for path in export_csv_files(results, out_dir):
            print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
