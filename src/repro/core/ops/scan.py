"""Selection scans: the one functional path for scan-shaped operators.

A :class:`SelectionScan` evaluates a conjunctive predicate cascade over
arbitrary columns and aggregates an expression over the survivors, in
branching or predicated variants.  TPC-H Q6
(:class:`repro.core.ops.q6.TpchQ6`) is one instance; the examples and
ablations can build others (different predicate orders, widths, and
clusterings) to explore when branching pays.

Like the join facades, a scan executes once and prices per
configuration: :meth:`SelectionScan.execute` evaluates the cascade and
the aggregate on the real columns, and :meth:`SelectionScan.price`
prices that execution as the scan's variant on any machine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.ops.selection import selection_line_fractions
from repro.data.relation import Column, check_same_columns, read_column
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

VARIANTS = ("branching", "predicated")


@dataclass(frozen=True)
class Predicate:
    """One predicate of the cascade: a column and a row-mask function."""

    column: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class ScanExecution:
    """What one functional scan leaves for pricing: the aggregate, the
    qualifying rows, the branching cascade's line fractions (one per
    predicate, then the survivors' tail) and the column objects read —
    no row masks."""

    aggregate: float
    qualifying_rows: int
    cascade_line_fractions: Tuple[float, ...]
    columns: Dict[str, Column]


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
        aggregate: function from the surviving rows of every column the
            scan reads (predicate and aggregate columns) to a float.
        backend: ``serial`` | ``threads`` — host execution of the
            cascade; results and priced manifests are identical across
            backends and worker counts.
    """

    #: names the host executor and the priced plan.
    label = "scan"

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
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}"
            )
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
        #: the cascade's column reads in order: one per predicate, then
        #: the aggregate-only columns.
        self.reads = [p.column for p in self.predicates] + self.aggregate_columns

    # ------------------------------------------------------------------
    def _read_columns(self, columns: Mapping[str, Column]) -> Dict[str, Column]:
        """The columns the scan reads, as given (arrays or deferred)."""
        missing = [name for name in self.reads if name not in columns]
        if missing:
            raise KeyError(f"missing columns: {', '.join(missing)}")
        read = {name: columns[name] for name in self.reads}
        if len({len(column) for column in read.values()}) != 1:
            raise ValueError("ragged input columns")
        return read

    def execute(self, columns: Mapping[str, Column]) -> ScanExecution:
        """Evaluate the predicate cascade and the aggregate on the real
        columns.  Both variants compute the same answer, so one
        execution prices either on any machine."""
        read = self._read_columns(columns)
        arrays = {name: read_column(column) for name, column in read.items()}
        executor = make_executor(
            self.backend, self.workers, self.exec_morsel_tuples, name=self.label
        )
        self.last_executor = executor
        evaluators = [
            (lambda lo, hi, p=p: p.evaluate(arrays[p.column][lo:hi]))
            for p in self.predicates
        ]
        masks = execute_masks(
            len(arrays[self.predicates[0].column]), evaluators, executor
        )
        # No survivors mask outlives this line: the line fractions below
        # hold their own cascade temporaries.
        rows = np.flatnonzero(functools.reduce(np.logical_and, masks))
        aggregate = (
            float(self.aggregate({name: a.take(rows) for name, a in arrays.items()}))
            if len(rows)
            else 0.0
        )
        value_bytes = min(column.dtype.itemsize for column in read.values())
        return ScanExecution(
            aggregate=aggregate,
            qualifying_rows=len(rows),
            cascade_line_fractions=tuple(
                selection_line_fractions(masks, value_bytes=value_bytes)
            ),
            columns=read,
        )

    def _line_fractions(self, execution: ScanExecution) -> List[float]:
        """Per-read line-load fractions for this variant.

        Predication loads every line.  Branching loads a later read's
        line where an earlier predicate left a survivor in it; divergence
        and prefetch still pull part of every skippable column.
        """
        if self.variant == "predicated":
            return [1.0] * len(self.reads)
        first, *later = execution.cascade_line_fractions
        residual = self.calibration.branching_residual_load
        damped = [first] + [residual + (1.0 - residual) * f for f in later]
        # One fraction per predicate column, then the tail fraction for
        # every aggregate column.
        return damped[: len(self.predicates)] + [damped[-1]] * len(
            self.aggregate_columns
        )

    # ------------------------------------------------------------------
    def run(
        self,
        columns: Mapping[str, Column],
        processor: str = "gpu0",
        location: str = "cpu0-mem",
        modeled_rows: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
    ) -> ScanResult:
        """Execute the scan functionally and price it."""
        execution = self.execute(columns)
        return self.price(execution, columns, processor, location, modeled_rows, kind)

    def price(
        self,
        execution: ScanExecution,
        columns: Mapping[str, Column],
        processor: str = "gpu0",
        location: str = "cpu0-mem",
        modeled_rows: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
    ) -> ScanResult:
        """Price one execution of ``columns`` as this variant.

        ``modeled_rows`` defaults to the executed row count.  ``kind`` is
        the source columns' memory kind; when given, the transfer
        method's Table-1 kind requirement is enforced.

        Raises:
            ValueError: if ``execution`` read other columns.
            LogicalError: if ``modeled_rows`` is below the executed rows.
        """
        read = self._read_columns(columns)
        check_same_columns(execution.columns, read)
        executed_rows = len(next(iter(read.values())))
        if modeled_rows is None:
            modeled_rows = executed_rows
        fractions = self._line_fractions(execution)
        config = PhysicalConfig(
            strategy="single",
            processor=processor,
            transfer_method=self.transfer_method,
            variant=self.variant,
            backend=self.backend,
            exec_workers=self.workers,
            label=self.label,
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
            {f"{i}:{name}": read[name] for i, name in enumerate(self.reads)},
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
            aggregate=execution.aggregate,
            qualifying_rows=execution.qualifying_rows,
            selectivity=(
                execution.qualifying_rows / executed_rows if executed_rows else 0.0
            ),
            cost=cost,
            modeled_rows=modeled_rows,
            column_line_fractions=fractions,
            variant=self.variant,
            processor=processor,
        )
