"""A small vectorized, morsel-at-a-time query engine.

The paper's operators (selection, aggregation, hash join) composed into
pull-based pipelines over column batches.  This is the *functional*
execution substrate: it computes real answers on numpy columns,
morsel-wise, through the same dispatcher granularity the scheduler
uses.  The examples use it to run multi-operator queries (Q6, join +
aggregate) end to end; equivalence tests pin it against the dedicated
operators.

Operators::

    scan = TableScan({"k": keys, "v": values}, morsel_rows=65536)
    joined = HashJoinOp(build=scan_r, probe=scan_s,
                        build_key="k", probe_key="fk")
    result = collect(HashAggregate(joined, group_by=(),
                                   aggregates={"total": ("v", "sum")}))
"""

from repro.engine.operators import (
    Batch,
    Filter,
    HashAggregate,
    HashJoinOp,
    Limit,
    Operator,
    OrderBy,
    Project,
    TableScan,
    TopK,
    collect,
)

__all__ = [
    "Batch",
    "Filter",
    "HashAggregate",
    "HashJoinOp",
    "Limit",
    "Operator",
    "OrderBy",
    "Project",
    "TopK",
    "TableScan",
    "collect",
]
