"""Shared structures for the figure-reproduction harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

from repro.memory.allocator import OutOfMemoryError
from repro.transfer.methods import UnsupportedTransferError
from repro.utils.tables import Table
from repro.workloads.builders import JoinWorkload


@dataclass
class SeriesRow:
    """One x-position of a figure: a label plus one value per series."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, series: str) -> Optional[float]:
        return self.values.get(series)


@dataclass
class FigureResult:
    """Simulated reproduction of one figure/table."""

    figure: str
    title: str
    rows: List[SeriesRow] = field(default_factory=list)
    paper: Dict[str, Dict[str, float]] = field(default_factory=dict)
    unit: str = "G Tuples/s"
    notes: str = ""

    def add(self, label: str, **values: float) -> None:
        self.rows.append(SeriesRow(label=label, values=dict(values)))

    def series_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            for name in row.values:
                if name not in names:
                    names.append(name)
        return names

    def series(self, name: str) -> List[float]:
        """Values of one series across rows (missing rows are skipped)."""
        return [row.values[name] for row in self.rows if name in row.values]

    def value(self, label: str, series: str) -> float:
        for row in self.rows:
            if row.label == label and series in row.values:
                return row.values[series]
        raise KeyError(f"no value for ({label!r}, {series!r}) in {self.figure}")

    def paper_value(self, label: str, series: str) -> Optional[float]:
        return self.paper.get(label, {}).get(series)

    def table(self) -> Table:
        """Render simulated-vs-paper as an ASCII table."""
        names = self.series_names()
        columns = [self.figure]
        for name in names:
            columns.append(f"{name} (sim)")
            columns.append(f"{name} (paper)")
        table = Table(columns, title=f"{self.figure}: {self.title} [{self.unit}]")
        for row in self.rows:
            cells: List[object] = [row.label]
            for name in names:
                sim = row.values.get(name)
                cells.append("-" if sim is None else f"{sim:.3g}")
                paper = self.paper_value(row.label, name)
                cells.append("-" if paper is None else f"{paper:.3g}")
            table.add_row(cells)
        return table

    def render(self) -> str:
        out = self.table().render()
        if self.notes:
            out += f"\n  note: {self.notes}"
        return out


@dataclass(frozen=True)
class Claim:
    """A shape the paper states about one figure: who wins, by roughly
    what factor, where curves cross, what stays monotone."""

    #: the paper sentence (or design claim) it encodes.
    text: str
    #: whether the claim holds on the figure's result.
    holds: Callable[[FigureResult], bool]


def near(value: float, target: float, rel: float) -> bool:
    """``value`` strictly within ``rel`` of ``target``, relative to ``target``."""
    return abs(value - target) < rel * abs(target)


def rising(values: Sequence[float], slack: float = 0.0) -> bool:
    """Each value is at least ``1 - slack`` times the one before it."""
    return all(b >= a * (1 - slack) for a, b in zip(values, values[1:]))


def falling(values: Sequence[float], slack: float = 0.0) -> bool:
    """Each value is at most ``1 + slack`` times the one before it."""
    return all(b <= a * (1 + slack) for a, b in zip(values, values[1:]))


def missing(result: FigureResult, label: str, series: str) -> bool:
    """No cell at ``(label, series)``: the configuration cannot run."""
    return all(row.label != label or series not in row.values for row in result.rows)


class Series(NamedTuple):
    """One configuration a figure prices: a join facade, the keyword
    arguments of its ``price``, and the memory region the relations move
    to (``None``: where they were generated; only a facade with a
    transfer method moves them)."""

    name: str
    join: Any
    kwargs: Mapping[str, Any] = {}
    location: Optional[str] = None


def price_series(
    execution: Any, workload: JoinWorkload, series: Iterable[Series]
) -> Dict[str, Any]:
    """Price one execution of ``workload`` under every series, in order.

    Each series' relations are allocated as its facade's transfer method
    requires (Table 1, ``JoinWorkload.placed_for``); a facade without one
    keeps them where they were generated.  A configuration that cannot
    run (``OutOfMemoryError``, ``UnsupportedTransferError``) leaves no
    result, and a later series of the same name stands in for it.
    """
    results: Dict[str, Any] = {}
    for name, join, kwargs, location in series:
        if name in results:
            continue
        method = getattr(join, "transfer_method", None)
        placed = workload if method is None else workload.placed_for(method, location)
        try:
            results[name] = join.price(execution, placed.r, placed.s, **kwargs)
        except (OutOfMemoryError, UnsupportedTransferError):
            pass
    return results


def throughputs(results: Mapping[str, Any]) -> Dict[str, float]:
    """Each result's throughput (G Tuples/s), in the results' order."""
    return {name: result.throughput_gtuples for name, result in results.items()}
