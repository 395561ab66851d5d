"""Generic selection-scan operator (the machinery behind Q6).

A :class:`SelectionScan` evaluates a conjunctive predicate cascade over
arbitrary columns and aggregates an expression over the survivors, in
branching or predicated variants.  Q6 is one instance; the examples and
ablations can build others (different predicate orders, widths, and
clusterings) to explore when branching pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.ops.selection import selection_line_fractions
from repro.exec import (
    DEFAULT_EXEC_MORSEL_TUPLES,
    DEFAULT_WORKERS,
    check_backend,
    execute_masks,
    make_executor,
)
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import Machine
from repro.logical.algebra import scan
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.stats import ScanStats
from repro.obs import Observability
from repro.plan import PlanExecutor
from repro.transfer.methods import get_method


@dataclass(frozen=True)
class Predicate:
    """One predicate of the cascade: a column and a row-mask function."""

    column: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass
class ScanResult:
    """Functional aggregate plus simulated performance."""

    aggregate: float
    qualifying_rows: int
    selectivity: float
    cost: PhaseCost
    modeled_rows: int
    column_line_fractions: List[float]
    variant: str
    processor: str

    @property
    def runtime(self) -> float:
        return self.cost.seconds

    @property
    def throughput_tuples(self) -> float:
        if self.runtime == 0:
            return float("inf")
        return self.modeled_rows / self.runtime

    @property
    def throughput_gtuples(self) -> float:
        return self.throughput_tuples / 1e9


class SelectionScan:
    """Conjunctive predicate cascade + aggregation over columns.

    Args:
        predicates: evaluated in order; the branching variant loads a
            later predicate's column only where earlier predicates left
            surviving rows in the cache line.
        aggregate_columns: extra columns read only for fully-surviving
            rows (the aggregate inputs).
        aggregate: function from the surviving rows' columns to a float.
        backend: ``serial`` | ``threads`` — host execution of the
            cascade; results and priced manifests are identical across
            backends and worker counts.
    """

    def __init__(
        self,
        machine: Machine,
        predicates: Sequence[Predicate],
        aggregate_columns: Sequence[str],
        aggregate: Callable[[Dict[str, np.ndarray]], float],
        variant: str = "predicated",
        transfer_method: str = "coherence",
        calibration: Calibration = DEFAULT_CALIBRATION,
        obs: Optional[Observability] = None,
        backend: str = "serial",
        workers: int = DEFAULT_WORKERS,
        exec_morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    ) -> None:
        if not predicates:
            raise ValueError("need at least one predicate")
        if variant not in ("branching", "predicated"):
            raise ValueError(f"unknown variant {variant!r}")
        self.machine = machine
        self.predicates = list(predicates)
        self.aggregate_columns = list(aggregate_columns)
        self.aggregate = aggregate
        self.variant = variant
        self.transfer_method = transfer_method
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.backend = check_backend(backend)
        self.workers = workers
        self.exec_morsel_tuples = exec_morsel_tuples
        self.last_executor = None

    # ------------------------------------------------------------------
    def _execute(self, columns: Dict[str, np.ndarray]):
        n_rows = len(columns[self.predicates[0].column])
        executor = make_executor(
            self.backend, self.workers, self.exec_morsel_tuples, name="scan"
        )
        self.last_executor = executor
        evaluators = [
            (lambda lo, hi, p=p: p.evaluate(columns[p.column][lo:hi]))
            for p in self.predicates
        ]
        masks = execute_masks(n_rows, evaluators, executor)
        survivors = masks[0].copy()
        for mask in masks[1:]:
            survivors &= mask
        surviving = {
            name: columns[name][survivors] for name in self.aggregate_columns
        }
        value = float(self.aggregate(surviving)) if survivors.any() else 0.0
        return value, survivors, masks

    def _fractions(self, masks: List[np.ndarray], value_bytes: int) -> List[float]:
        n_columns = len(self.predicates) + len(self.aggregate_columns)
        if self.variant == "predicated":
            return [1.0] * n_columns
        fractions = selection_line_fractions(masks, value_bytes=value_bytes)
        residual = self.calibration.branching_residual_load
        damped = [fractions[0]] + [
            residual + (1.0 - residual) * f for f in fractions[1:]
        ]
        # One fraction per predicate column, then the tail fraction for
        # every aggregate column.
        return damped[: len(self.predicates)] + [damped[-1]] * len(
            self.aggregate_columns
        )

    # ------------------------------------------------------------------
    def run(
        self,
        columns: Dict[str, np.ndarray],
        processor: str = "gpu0",
        location: str = "cpu0-mem",
        modeled_rows: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
    ) -> ScanResult:
        """Execute the scan functionally and price it.

        ``kind`` is the source columns' memory kind; when given, the
        transfer method's Table-1 kind requirement is enforced.
        """
        needed = [p.column for p in self.predicates] + self.aggregate_columns
        missing = [name for name in needed if name not in columns]
        if missing:
            raise KeyError(f"missing columns: {', '.join(missing)}")
        rows = {len(columns[name]) for name in needed}
        if len(rows) != 1:
            raise ValueError("ragged input columns")
        executed_rows = rows.pop()
        modeled_rows = modeled_rows or executed_rows

        value, survivors, masks = self._execute(columns)
        widths = [columns[name].dtype.itemsize for name in needed]
        fractions = self._fractions(masks, value_bytes=min(widths))

        config = PhysicalConfig(
            strategy="single",
            processor=processor,
            transfer_method=self.transfer_method,
            variant=self.variant,
            backend=self.backend,
            exec_workers=self.workers,
            label="scan",
        )
        if kind is None:
            # Unspecified source kind: assume it was allocated as the
            # transfer method requires (route-only validation).
            kind = get_method(self.transfer_method).required_kind
        # The cascade's predicates are opaque row-mask callables the
        # algebra cannot express, so the logical plan is the bare scan
        # of the cascade's column reads (a column read by a predicate
        # and again by the aggregate is loaded twice) under a count;
        # pricing takes the measured per-read line fractions.
        query = scan(
            {f"{i}:{name}": columns[name] for i, name in enumerate(needed)},
            name="columns",
            modeled_rows=modeled_rows,
            location=location,
            kind=kind,
        ).aggregate(rows=("*", "count"))
        plan = compile_query(
            query, config, self.cost_model, ScanStats(tuple(fractions))
        )
        cost = PlanExecutor(self.cost_model).execute(plan).cost("scan")
        return ScanResult(
            aggregate=value,
            qualifying_rows=int(survivors.sum()),
            selectivity=float(survivors.mean()) if executed_rows else 0.0,
            cost=cost,
            modeled_rows=modeled_rows,
            column_line_fractions=fractions,
            variant=self.variant,
            processor=processor,
        )
