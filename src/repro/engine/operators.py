"""Vectorized pull-based operators over column batches.

A *batch* is a dict of equal-length numpy arrays.  Operators are
iterables of batches; pipeline breakers (join build, aggregation)
consume their child eagerly.  Everything is deterministic and
allocation-light: filters and projections work on views where numpy
allows it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.core.hashtable import create_hash_table
from repro.data.relation import Relation, read_column

Batch = Dict[str, np.ndarray]


def _batch_rows(batch: Batch) -> int:
    if not batch:
        return 0
    lengths = {len(column) for column in batch.values()}
    if len(lengths) != 1:
        raise ValueError(f"ragged batch: column lengths {sorted(lengths)}")
    return lengths.pop()


class Operator:
    """Base: an iterable of batches with a fixed output schema."""

    def schema(self) -> Tuple[str, ...]:
        """Names of the output columns, in batch order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Batch]:
        """Yield output batches (dicts of equal-length arrays)."""
        raise NotImplementedError


class TableScan(Operator):
    """Scans in-memory columns morsel-wise.

    Accepts either a dict of columns or a :class:`Relation` (exposed as
    ``key`` and ``payload`` columns); deferred columns are read here.
    """

    def __init__(
        self,
        source,
        morsel_rows: int = 1 << 16,
        columns: Optional[Iterable[str]] = None,
    ) -> None:
        if morsel_rows <= 0:
            raise ValueError(f"morsel size must be positive: {morsel_rows}")
        if isinstance(source, Relation):
            source = source.columns()
        data = {name: read_column(column) for name, column in source.items()}
        if not data:
            raise ValueError("scan needs at least one column")
        if columns is not None:
            data = {name: data[name] for name in columns}
        _batch_rows(data)  # validates equal lengths
        self._data = data
        self.morsel_rows = morsel_rows

    def schema(self) -> Tuple[str, ...]:
        return tuple(self._data)

    @property
    def rows(self) -> int:
        return _batch_rows(self._data)

    def __iter__(self) -> Iterator[Batch]:
        total = self.rows
        for start in range(0, total, self.morsel_rows):
            end = min(start + self.morsel_rows, total)
            yield {name: col[start:end] for name, col in self._data.items()}


class Filter(Operator):
    """Keeps rows where ``predicate(batch)`` is True."""

    def __init__(self, child: Operator, predicate: Callable[[Batch], np.ndarray]):
        self.child = child
        self.predicate = predicate

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def __iter__(self) -> Iterator[Batch]:
        for batch in self.child:
            mask = np.asarray(self.predicate(batch), dtype=bool)
            if mask.shape != (next(iter(batch.values())).shape[0],):
                raise ValueError("predicate must return one bool per row")
            if mask.all():
                yield batch
            elif mask.any():
                yield {name: col[mask] for name, col in batch.items()}


class Project(Operator):
    """Computes output columns from expressions over the input batch."""

    def __init__(
        self,
        child: Operator,
        expressions: Mapping[str, Callable[[Batch], np.ndarray]],
    ):
        if not expressions:
            raise ValueError("projection needs at least one expression")
        self.child = child
        self.expressions = dict(expressions)

    def schema(self) -> Tuple[str, ...]:
        return tuple(self.expressions)

    def __iter__(self) -> Iterator[Batch]:
        for batch in self.child:
            yield {
                name: np.asarray(expr(batch))
                for name, expr in self.expressions.items()
            }


class Limit(Operator):
    """Passes through at most ``n`` rows."""

    def __init__(self, child: Operator, n: int):
        if n < 0:
            raise ValueError(f"limit must be non-negative: {n}")
        self.child = child
        self.n = n

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def __iter__(self) -> Iterator[Batch]:
        remaining = self.n
        for batch in self.child:
            if remaining <= 0:
                return
            rows = _batch_rows(batch)
            if rows <= remaining:
                remaining -= rows
                yield batch
            else:
                yield {name: col[:remaining] for name, col in batch.items()}
                return


class HashJoinOp(Operator):
    """Equi-join: builds a table from the build child, streams the probe.

    Build-side columns are emitted with ``output_prefix`` prepended
    (``build_`` by default; star plans joining several identically-
    schemed dimensions pass a per-dimension prefix), except the key,
    which equals the probe key on output.  Inner join semantics; the
    build side must have unique keys (it is the paper's primary-key
    relation).
    """

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_key: str,
        probe_key: str,
        hash_scheme: str = "open_addressing",
        output_prefix: str = "build_",
    ) -> None:
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.hash_scheme = hash_scheme
        self.output_prefix = output_prefix
        self._build_payload_names = [
            name for name in build.schema() if name != build_key
        ]

    def schema(self) -> Tuple[str, ...]:
        probe_cols = self.probe.schema()
        build_cols = tuple(
            f"{self.output_prefix}{n}" for n in self._build_payload_names
        )
        return probe_cols + build_cols

    def __iter__(self) -> Iterator[Batch]:
        # Pipeline breaker: materialize the build side.
        build_batches = list(self.build)
        if build_batches:
            keys = np.concatenate([b[self.build_key] for b in build_batches])
            payload_rows = {
                name: np.concatenate([b[name] for b in build_batches])
                for name in self._build_payload_names
            }
        else:
            keys = np.array([], dtype=np.int64)
            payload_rows = {name: np.array([]) for name in self._build_payload_names}
        # The hash table stores row ids; payload columns stay columnar.
        table = create_hash_table(
            self.hash_scheme, max(1, len(keys)), np.int64, np.int64
        )
        if len(keys):
            table.insert_batch(
                keys.astype(np.int64), np.arange(len(keys), dtype=np.int64)
            )
        for batch in self.probe:
            probe_keys = batch[self.probe_key].astype(np.int64)
            found, row_ids = table.lookup_batch(probe_keys)
            if not found.any():
                continue
            out = {name: col[found] for name, col in batch.items()}
            matched_rows = row_ids[found]
            for name in self._build_payload_names:
                out_name = f"{self.output_prefix}{name}"
                out[out_name] = payload_rows[name][matched_rows]
            yield out


_AGG_FUNCTIONS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


class HashAggregate(Operator):
    """Group-by aggregation (sum/min/max/count/mean).

    ``aggregates`` maps output names to ``(column, function)`` pairs;
    ``("*", "count")`` counts rows.  With an empty ``group_by`` the
    result is a single global row.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Tuple[str, ...],
        aggregates: Mapping[str, Tuple[str, str]],
    ) -> None:
        if not aggregates:
            raise ValueError("aggregation needs at least one aggregate")
        for name, (column, function) in aggregates.items():
            if function not in ("sum", "min", "max", "count", "mean"):
                raise ValueError(f"unknown aggregate function: {function}")
            if function == "count" and column != "*":
                raise ValueError("count aggregates use column '*'")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = dict(aggregates)

    def schema(self) -> Tuple[str, ...]:
        return self.group_by + tuple(self.aggregates)

    def __iter__(self) -> Iterator[Batch]:
        groups: Dict[Tuple, Dict[str, float]] = {}

        def fold(key: Tuple, batch: Batch, rows: np.ndarray) -> None:
            state = groups.setdefault(key, {})
            n = int(rows.sum()) if rows.dtype == bool else len(rows)
            for name, (column, function) in self.aggregates.items():
                if function == "count":
                    state[name] = state.get(name, 0) + n
                    continue
                values = batch[column][rows]
                if len(values) == 0:
                    continue
                if function == "mean":
                    state[name + "#sum"] = state.get(name + "#sum", 0.0) + float(
                        values.astype(np.float64).sum()
                    )
                    state[name + "#n"] = state.get(name + "#n", 0) + len(values)
                    continue
                op = _AGG_FUNCTIONS[function]
                partial = op.reduce(values)
                if name in state:
                    state[name] = op(state[name], partial)
                else:
                    state[name] = partial

        for batch in self.child:
            rows = _batch_rows(batch)
            if rows == 0:
                continue
            if not self.group_by:
                fold((), batch, np.arange(rows))
                continue
            group_cols = [batch[name] for name in self.group_by]
            # Vectorized grouping: sort by a composite key within the batch.
            composite = np.rec.fromarrays(group_cols)
            order = np.argsort(composite, kind="stable")
            sorted_composite = composite[order]
            boundaries = np.flatnonzero(
                np.concatenate(
                    ([True], sorted_composite[1:] != sorted_composite[:-1])
                )
            )
            boundaries = np.append(boundaries, rows)
            for i in range(len(boundaries) - 1):
                segment = order[boundaries[i] : boundaries[i + 1]]
                key = tuple(col[segment[0]] for col in group_cols)
                fold(key, batch, segment)

        if not groups:
            return
        keys = sorted(groups)
        out: Batch = {}
        for i, name in enumerate(self.group_by):
            out[name] = np.array([key[i] for key in keys])
        for name, (column, function) in self.aggregates.items():
            if function == "mean":
                out[name] = np.array(
                    [
                        groups[key][name + "#sum"] / groups[key][name + "#n"]
                        for key in keys
                    ]
                )
            else:
                out[name] = np.array([groups[key].get(name, 0) for key in keys])
        yield out


class OrderBy(Operator):
    """Pipeline breaker: materializes the child and sorts by columns."""

    def __init__(
        self,
        child: Operator,
        by: Tuple[str, ...],
        descending: bool = False,
    ) -> None:
        if not by:
            raise ValueError("order-by needs at least one column")
        self.child = child
        self.by = tuple(by)
        self.descending = descending

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def __iter__(self) -> Iterator[Batch]:
        data = collect(self.child)
        if not data or _batch_rows(data) == 0:
            return
        # Stable lexicographic sort: last key is most significant for
        # numpy's lexsort, so reverse the user's order.
        keys = [data[name] for name in reversed(self.by)]
        order = np.lexsort(keys)
        if self.descending:
            order = order[::-1]
        yield {name: col[order] for name, col in data.items()}


class TopK(Operator):
    """The k rows with the largest (or smallest) values of one column.

    Streaming: keeps a running candidate set of at most 2k rows per
    batch boundary, so the full input is never materialized.
    """

    def __init__(self, child: Operator, by: str, k: int, largest: bool = True):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.child = child
        self.by = by
        self.k = k
        self.largest = largest

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def __iter__(self) -> Iterator[Batch]:
        candidates: Optional[Batch] = None
        for batch in self.child:
            if _batch_rows(batch) == 0:
                continue
            if candidates is None:
                candidates = {name: col.copy() for name, col in batch.items()}
            else:
                candidates = {
                    name: np.concatenate([candidates[name], batch[name]])
                    for name in candidates
                }
            if _batch_rows(candidates) > 2 * self.k:
                candidates = self._prune(candidates)
        if candidates is None:
            return
        result = self._prune(candidates)
        order = np.argsort(result[self.by], kind="stable")
        if self.largest:
            order = order[::-1]
        yield {name: col[order] for name, col in result.items()}

    def _prune(self, batch: Batch) -> Batch:
        values = batch[self.by]
        if len(values) <= self.k:
            return batch
        if self.largest:
            keep = np.argpartition(values, len(values) - self.k)[-self.k :]
        else:
            keep = np.argpartition(values, self.k - 1)[: self.k]
        return {name: col[keep] for name, col in batch.items()}


def collect(operator: Operator) -> Batch:
    """Materialize an operator tree into one concatenated batch."""
    batches = list(operator)
    if not batches:
        return {name: np.array([]) for name in operator.schema()}
    return {
        name: np.concatenate([batch[name] for batch in batches])
        for name in batches[0]
    }
