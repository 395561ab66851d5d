"""The logical-plan algebra: ``Scan -> Filter -> Project -> HashJoin ->
Aggregate``.

Logical nodes describe *what* a query computes, independent of where it
runs, which Table-1 transfer method moves its bytes, or where its hash
tables live — those are physical choices made by
:class:`repro.logical.lower.PhysicalConfig` (by hand) or
:func:`repro.logical.optimizer.optimize` (by cost).  The algebra is
deliberately small: it covers TPC-H Q6 (scan + predicate cascade +
projection + aggregate) and multi-join star/snowflake shapes over
``repro.workloads``, which is exactly the operator inventory of the
paper.

Every constructor validates its schema immediately, so a malformed
query fails where it is written, not deep inside the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.data.relation import Column, ColumnTable, Relation
from repro.hardware.memory import MemoryKind

#: aggregate functions the algebra accepts.
AGGREGATE_FUNCTIONS = ("sum", "min", "max", "count", "mean")

#: comparison operators a :class:`Predicate` may use.
PREDICATE_OPS = ("ge", "gt", "lt", "le", "eq", "between")


class LogicalError(ValueError):
    """A malformed logical plan (unknown column, bad shape, ...)."""


# ----------------------------------------------------------------------
# Scalar expressions and predicates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """A scalar expression: the columns it references and its label.
    Pricing reads only what an expression touches, never its value."""

    refs: Tuple[str, ...]
    label: str = ""


def column(name: str) -> Expr:
    """The identity expression for one column."""
    return Expr((name,), name)


def mul(a: str, b: str) -> Expr:
    """``a * b``."""
    return Expr((a, b), f"{a} * {b}")


@dataclass(frozen=True)
class Predicate:
    """One comparison over a single column.

    ``selectivity`` is an optional estimate hint in [0, 1] used by the
    optimizer's pre-execution statistics (the functional layer always
    measures the true value).  ``clustered`` marks columns whose
    qualifying rows are physically contiguous (dbgen's shipdate
    clustering), which changes the *line*-granularity skipping estimate
    for branching scans.
    """

    column: str
    op: str
    value: Any = None
    high: Any = None
    selectivity: Optional[float] = None
    clustered: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise LogicalError(
                f"unknown predicate op {self.op!r}; valid: "
                f"{', '.join(PREDICATE_OPS)}"
            )
        if self.op == "between" and self.high is None:
            raise LogicalError("'between' predicates need value and high")
        if self.selectivity is not None and not 0.0 <= self.selectivity <= 1.0:
            raise LogicalError(
                f"selectivity hint must be in [0, 1], got {self.selectivity}"
            )

    def describe(self) -> str:
        """Render the comparison (or the explicit label if one is set)."""
        if self.label:
            return self.label
        if self.op == "between":
            return f"{self.column} in [{self.value}, {self.high}]"
        symbol = {"ge": ">=", "gt": ">", "lt": "<", "le": "<=", "eq": "=="}
        return f"{self.column} {symbol[self.op]} {self.value}"


def ge(col: str, value: Any, **kwargs: Any) -> Predicate:
    """``col >= value``."""
    return Predicate(col, "ge", value, **kwargs)


def lt(col: str, value: Any, **kwargs: Any) -> Predicate:
    """``col < value``."""
    return Predicate(col, "lt", value, **kwargs)


def between(col: str, lo: Any, hi: Any, **kwargs: Any) -> Predicate:
    """``lo <= col <= hi`` (both bounds inclusive)."""
    return Predicate(col, "between", lo, hi, **kwargs)


# ----------------------------------------------------------------------
# Logical nodes
# ----------------------------------------------------------------------
class LogicalNode:
    """Base: a node with children and a fixed output schema."""

    children: Tuple["LogicalNode", ...] = ()

    def schema(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (used by explain output)."""
        raise NotImplementedError

    def walk(self) -> Iterable["LogicalNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class Scan(LogicalNode):
    """A base-table scan of a :class:`Relation` (exposed as its
    ``key``/``payload`` columns) or a :class:`ColumnTable`.

    The scan takes its schema, widths, row counts, location and kind
    from the table as given and never reads a column; the table checked
    its own shape when it was built.  ``name`` overrides the table's.
    """

    def __init__(self, source: Union[Relation, ColumnTable], name: str = "") -> None:
        if isinstance(source, Relation):
            self.relation: Optional[Relation] = source
            self.executed_rows = source.executed_tuples
            self.modeled_rows = source.modeled_tuples
        elif isinstance(source, ColumnTable):
            self.relation = None
            self.executed_rows = source.executed_rows
            self.modeled_rows = source.modeled_rows
        else:
            raise LogicalError(
                f"scan source must be a Relation or a ColumnTable, "
                f"got {type(source).__name__}"
            )
        self.source = source
        self._columns: Dict[str, Column] = source.columns()
        self.name = name or source.name
        self.location = source.location
        self.kind = source.kind

    def schema(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def column_bytes(self) -> List[int]:
        """Per-column element widths, in schema order."""
        return [col.dtype.itemsize for col in self._columns.values()]

    def describe(self) -> str:
        return (
            f"Scan({self.name}: {self.modeled_rows} modeled rows, "
            f"cols={list(self._columns)}, in {self.location})"
        )


class Filter(LogicalNode):
    """Keeps rows satisfying one predicate."""

    def __init__(self, child: LogicalNode, predicate: Predicate) -> None:
        if predicate.column not in child.schema():
            raise LogicalError(
                f"filter references unknown column {predicate.column!r}; "
                f"child schema: {list(child.schema())}"
            )
        self.child = child
        self.children = (child,)
        self.predicate = predicate

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def describe(self) -> str:
        return f"Filter({self.predicate.describe()})"


class Project(LogicalNode):
    """Computes output columns from expressions over the input."""

    def __init__(
        self, child: LogicalNode, expressions: Mapping[str, Expr]
    ) -> None:
        if not expressions:
            raise LogicalError("projection needs at least one expression")
        available = set(child.schema())
        for name, expr in expressions.items():
            missing = [ref for ref in expr.refs if ref not in available]
            if missing:
                raise LogicalError(
                    f"projection {name!r} references unknown column(s) "
                    f"{missing}; child schema: {sorted(available)}"
                )
        self.child = child
        self.children = (child,)
        self.expressions = dict(expressions)

    def schema(self) -> Tuple[str, ...]:
        return tuple(self.expressions)

    def describe(self) -> str:
        exprs = ", ".join(
            f"{name}={expr.label or '<expr>'}"
            for name, expr in self.expressions.items()
        )
        return f"Project({exprs})"


class HashJoin(LogicalNode):
    """Equi-join: the build child populates a hash table, the probe
    child streams through it.

    Mirrors :class:`repro.engine.operators.HashJoinOp`: build-side
    payload columns appear in the output with ``output_prefix``
    prepended (``build_`` by default; star queries joining several
    dimensions with identically-named payloads pass a per-dimension
    prefix to keep the output schema collision-free).
    ``selectivity`` is an optional match-rate estimate hint for the
    optimizer (fraction of probe rows that find a build match).
    """

    def __init__(
        self,
        build: LogicalNode,
        probe: LogicalNode,
        build_key: str,
        probe_key: str,
        selectivity: Optional[float] = None,
        output_prefix: str = "build_",
    ) -> None:
        if build_key not in build.schema():
            raise LogicalError(
                f"build key {build_key!r} not in build schema "
                f"{list(build.schema())}"
            )
        if probe_key not in probe.schema():
            raise LogicalError(
                f"probe key {probe_key!r} not in probe schema "
                f"{list(probe.schema())}"
            )
        if selectivity is not None and not 0.0 <= selectivity <= 1.0:
            raise LogicalError(
                f"join selectivity hint must be in [0, 1], got {selectivity}"
            )
        self.build = build
        self.probe = probe
        self.children = (build, probe)
        self.build_key = build_key
        self.probe_key = probe_key
        self.selectivity = selectivity
        self.output_prefix = output_prefix
        self.build_payload_names = tuple(
            name for name in build.schema() if name != build_key
        )
        overlap = set(
            f"{output_prefix}{name}" for name in self.build_payload_names
        ) & set(probe.schema())
        if overlap:
            raise LogicalError(
                f"join output column collision: {sorted(overlap)}; pass a "
                "distinct output_prefix"
            )

    def schema(self) -> Tuple[str, ...]:
        return self.probe.schema() + tuple(
            f"{self.output_prefix}{name}"
            for name in self.build_payload_names
        )

    def describe(self) -> str:
        return f"HashJoin(build.{self.build_key} == probe.{self.probe_key})"


class Aggregate(LogicalNode):
    """Group-by aggregation; empty ``group_by`` yields one global row."""

    def __init__(
        self,
        child: LogicalNode,
        group_by: Tuple[str, ...] = (),
        aggregates: Optional[Mapping[str, Tuple[str, str]]] = None,
    ) -> None:
        aggregates = dict(aggregates or {})
        if not aggregates:
            raise LogicalError("aggregation needs at least one aggregate")
        available = set(child.schema())
        for name in group_by:
            if name not in available:
                raise LogicalError(
                    f"group-by column {name!r} not in child schema "
                    f"{sorted(available)}"
                )
        for name, (col, fn) in aggregates.items():
            if fn not in AGGREGATE_FUNCTIONS:
                raise LogicalError(
                    f"unknown aggregate function {fn!r}; valid: "
                    f"{', '.join(AGGREGATE_FUNCTIONS)}"
                )
            if fn == "count":
                if col != "*":
                    raise LogicalError("count aggregates use column '*'")
            elif col not in available:
                raise LogicalError(
                    f"aggregate {name!r} references unknown column {col!r}; "
                    f"child schema: {sorted(available)}"
                )
        self.child = child
        self.children = (child,)
        self.group_by = tuple(group_by)
        self.aggregates = aggregates

    def schema(self) -> Tuple[str, ...]:
        return self.group_by + tuple(self.aggregates)

    def describe(self) -> str:
        aggs = ", ".join(
            f"{name}={fn}({col})"
            for name, (col, fn) in self.aggregates.items()
        )
        by = f" by {list(self.group_by)}" if self.group_by else ""
        return f"Aggregate({aggs}{by})"


# ----------------------------------------------------------------------
# The fluent builder
# ----------------------------------------------------------------------
class Query:
    """A fluent, validating builder over the algebra.

    Example (TPC-H Q6 shape)::

        q = (scan(lineitem)
             .filter(ge("shipdate", lo), lt("shipdate", hi))
             .project(revenue=mul("extendedprice", "discount"))
             .aggregate(revenue=("revenue", "sum")))

    Example (NOPA join shape; ``self`` is the probe side)::

        q = (scan(wl.s)
             .join(scan(wl.r), build_key="key", probe_key="key")
             .aggregate(agg=("build_payload", "sum")))
    """

    def __init__(self, node: LogicalNode) -> None:
        if not isinstance(node, LogicalNode):
            raise LogicalError(
                f"Query wraps a LogicalNode, got {type(node).__name__}"
            )
        self.node = node

    def schema(self) -> Tuple[str, ...]:
        """Output column names of the wrapped tree."""
        return self.node.schema()

    def filter(self, *predicates: Predicate) -> "Query":
        """Apply the predicates in order (first argument innermost)."""
        if not predicates:
            raise LogicalError("filter() needs at least one predicate")
        node = self.node
        for predicate in predicates:
            node = Filter(node, predicate)
        return Query(node)

    def project(self, **expressions: Expr) -> "Query":
        """Compute named output columns from expressions."""
        return Query(Project(self.node, expressions))

    def join(
        self,
        build: "Query",
        build_key: str,
        probe_key: str,
        selectivity: Optional[float] = None,
        output_prefix: str = "build_",
    ) -> "Query":
        """Join ``self`` (probe side) against ``build`` (build side)."""
        return Query(
            HashJoin(
                build.node,
                self.node,
                build_key=build_key,
                probe_key=probe_key,
                selectivity=selectivity,
                output_prefix=output_prefix,
            )
        )

    def aggregate(
        self,
        group_by: Tuple[str, ...] = (),
        **aggregates: Tuple[str, str],
    ) -> "Query":
        """Aggregate ``name=(column, fn)`` pairs, optionally grouped."""
        return Query(Aggregate(self.node, group_by, aggregates))

    def describe(self) -> str:
        """Indented tree rendering of the logical plan."""
        lines: List[str] = []

        def render(node: LogicalNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children:
                render(child, depth + 1)

        render(self.node, 0)
        return "\n".join(lines)


def scan(
    source: Union[Relation, ColumnTable, Mapping[str, Column]],
    name: str = "",
    modeled_rows: Optional[int] = None,
    location: str = "cpu0-mem",
    kind: MemoryKind = MemoryKind.PAGEABLE,
) -> Query:
    """Start a query from a base table (see :class:`Scan`).

    A dict of columns becomes a :class:`ColumnTable` named ``name`` with
    the given modeled rows, location and kind; a :class:`Relation` or a
    :class:`ColumnTable` carries its own, and giving any of them beside
    it is an error.
    """
    if isinstance(source, Mapping):
        try:
            source = ColumnTable(name or "scan", source, modeled_rows, location, kind)
        except ValueError as error:
            raise LogicalError(str(error)) from None
    elif (modeled_rows, location, kind) != (None, "cpu0-mem", MemoryKind.PAGEABLE):
        raise LogicalError(
            f"{type(source).__name__} {source.name!r} carries its own modeled "
            "rows, location and kind; place it instead"
        )
    return Query(Scan(source, name=name))
