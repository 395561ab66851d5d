"""Logical query layer and cost-based optimizer.

The layer sits between user code and the phase-plan IR (``repro.plan``):

* :mod:`repro.logical.algebra` — a small relational algebra
  (``Scan -> Filter -> Project -> HashJoin -> Aggregate``) with a
  validating :class:`Query` builder, enough for TPC-H Q6 plus
  multi-join star/snowflake shapes over ``repro.workloads``;
* :mod:`repro.logical.stats` — runtime statistics (measured from a
  functional execution, or *estimated* ahead of time) that
  parameterize pricing;
* :mod:`repro.logical.lower` — the lowering compiler that turns a
  logical plan plus a :class:`PhysicalConfig` into a priced
  :class:`repro.plan.Plan` phase sequence through the shared ``ingest()`` glue;
* :mod:`repro.logical.optimizer` — enumerates physical alternatives
  (Table-1 transfer method, Fig. 8/11 hash-table placement fraction,
  GPU-only vs Het vs GPU+Het strategy, join order, host backend),
  prices each with the cost model, and picks the cheapest.

The operator classes (``NoPartitioningJoin``, ``CoopJoin``,
``StarJoin``, ``MultiGpuJoin``, ``RadixJoin``, ``TpchQ6``,
``SelectionScan``) price through this layer: each computes its answer
on its own functional kernels (``repro.exec``), then builds a logical
plan and runs it through :func:`compile_query`, so every priced plan in
the library is compiler output.  The layer itself executes nothing.
"""

from repro.logical.algebra import (
    Aggregate,
    Expr,
    Filter,
    HashJoin,
    LogicalError,
    LogicalNode,
    Predicate,
    Project,
    Query,
    Scan,
    between,
    column,
    ge,
    lt,
    mul,
    scan,
)
from repro.logical.lower import PhysicalConfig, compile_query
from repro.logical.optimizer import (
    Candidate,
    OPTIMIZER_SCHEMA_VERSION,
    OptimizerResult,
    optimize,
)
from repro.logical.stats import (
    JoinStats,
    ScanStats,
    StarStats,
    TableProfile,
    estimate_join_stats,
    estimate_line_fraction,
    estimate_scan_stats,
    estimate_star_stats,
)

__all__ = [
    "Aggregate",
    "Candidate",
    "Expr",
    "Filter",
    "HashJoin",
    "JoinStats",
    "LogicalError",
    "LogicalNode",
    "OPTIMIZER_SCHEMA_VERSION",
    "OptimizerResult",
    "PhysicalConfig",
    "Predicate",
    "Project",
    "Query",
    "Scan",
    "ScanStats",
    "StarStats",
    "TableProfile",
    "between",
    "column",
    "compile_query",
    "estimate_join_stats",
    "estimate_line_fraction",
    "estimate_scan_stats",
    "estimate_star_stats",
    "ge",
    "lt",
    "mul",
    "optimize",
    "scan",
]
