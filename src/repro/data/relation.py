"""Column-oriented relations and tables with dual cardinality.

A :class:`Relation` is a join input (key and payload columns); a
:class:`ColumnTable` is any set of named columns (TPC-H lineitem).
Either knows its shape — executed row count, column dtypes, modeled
cardinality, location and memory kind — without its arrays.  Planning
prices from that shape alone; only the functional layer reads the numpy
columns.  A generated table holds deferred columns whose arrays are
produced on that first read (:class:`DeferredColumns`); a table built
from arrays holds them from the start.

The *modeled* cardinality is the paper-scale tuple count that the cost
model prices.  All operators in this library generate traffic that is
linear in the tuple count, so traffic measured at execution scale is
scaled by ``modeled_tuples / executed_tuples`` before pricing — this is
validated by tests (see ``tests/costmodel/test_scaling_linearity.py``).

The storage model is columnar (<key, payload> columns), as in the paper
(Section 7.1: "We store the relations in a column-oriented storage
model") — which is what makes the payload-column line-skipping effects
of Figures 15 and 20 possible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.hardware.memory import MemoryKind


def executed_cardinality(modeled: int, scale: float, floor: int) -> int:
    """Rows a generator executes for ``modeled`` rows at ``scale``.

    ``floor`` keeps tiny scales statistically meaningful, but never
    lifts the executed count above the modeled one.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return min(modeled, max(floor, int(round(modeled * scale))))


class DeferredColumns:
    """Named columns whose lengths and dtypes are declared up front and
    whose arrays one ``generate()`` call produces on the first read of
    any of them.

    Everything viewing these columns (R and S of one join workload,
    every placed copy) shares that one generation; the lock makes
    concurrent first reads generate exactly once.  The generated arrays
    must match the declared shapes.
    """

    def __init__(
        self,
        shapes: Mapping[str, Tuple[int, np.dtype]],
        generate: Callable[[], Mapping[str, np.ndarray]],
    ) -> None:
        self.shapes = {
            name: (int(rows), np.dtype(dtype))
            for name, (rows, dtype) in shapes.items()
        }
        self._generate = generate
        self._arrays: Optional[Dict[str, np.ndarray]] = None
        self._lock = threading.Lock()

    @property
    def generated(self) -> bool:
        """Whether the arrays exist yet."""
        with self._lock:
            return self._arrays is not None

    def column(self, name: str) -> "DeferredColumn":
        """The deferred column ``name``; reading it generates all columns."""
        rows, dtype = self.shapes[name]
        return DeferredColumn(self, name, rows, dtype)

    def array(self, name: str) -> np.ndarray:
        """The array of column ``name``, generating every column first if
        none has been read yet."""
        with self._lock:
            if self._arrays is None:
                arrays = dict(self._generate())
                for column, (rows, dtype) in self.shapes.items():
                    array = arrays[column]
                    if array.shape != (rows,) or array.dtype != dtype:
                        raise ValueError(
                            f"generated column {column!r} is {array.dtype}"
                            f"{list(array.shape)}, declared {dtype}[{rows}]"
                        )
                self._arrays = arrays
            return self._arrays[name]


@dataclass(frozen=True)
class DeferredColumn:
    """One column of a :class:`DeferredColumns`: it answers ``len()``,
    ``dtype`` and ``ndim`` like the array it stands for, which
    :meth:`read` returns."""

    source: DeferredColumns
    name: str
    rows: int
    dtype: np.dtype
    ndim: ClassVar[int] = 1

    def __len__(self) -> int:
        return self.rows

    def read(self) -> np.ndarray:
        return self.source.array(self.name)


#: a column as relations and scans hold it: an array, or one not yet read.
Column = Union[np.ndarray, DeferredColumn]


def read_column(column: Column) -> np.ndarray:
    """The array behind ``column`` (generating it if it is deferred)."""
    if isinstance(column, DeferredColumn):
        return column.read()
    return column


def check_same_columns(
    read: Mapping[str, Column], given: Mapping[str, Column]
) -> None:
    """Raise ``ValueError`` naming the first of the ``given`` columns that
    is not the very column object an execution ``read``.

    Placed copies hold their source's column objects, so an execution of
    a relation prices any of its placements; a regenerated or sliced
    relation holds new objects and does not.
    """
    for name, column in given.items():
        if read.get(name) is not column:
            raise ValueError(
                f"the execution did not read the given column {name!r}; "
                "execute the relations being priced"
            )


class Relation:
    """A two-column (key, payload) relation.

    Attributes:
        name: relation name ("R", "S", "lineitem", ...).
        key: the join-key column.
        payload: the value column (same length as ``key``).
        modeled_tuples: paper-scale cardinality priced by the cost model;
            defaults to the executed cardinality.
        location: memory region holding the relation's columns.
        kind: memory kind (pageable/pinned/unified), which constrains
            the usable transfer methods (Table 1).

    ``key`` and ``payload`` are given as arrays or as deferred columns;
    reading either attribute returns the array.  Everything else is
    known without reading a column.
    """

    def __init__(
        self,
        name: str,
        key: Column,
        payload: Column,
        modeled_tuples: Optional[int] = None,
        location: str = "cpu0-mem",
        kind: MemoryKind = MemoryKind.PAGEABLE,
    ) -> None:
        if key.ndim != 1 or payload.ndim != 1:
            raise ValueError("relation columns must be one-dimensional")
        if len(key) != len(payload):
            raise ValueError(
                f"column length mismatch in {name}: "
                f"{len(key)} keys vs {len(payload)} payloads"
            )
        if modeled_tuples is None:
            modeled_tuples = len(key)
        if modeled_tuples < len(key):
            raise ValueError(
                f"modeled cardinality {modeled_tuples} below executed "
                f"cardinality {len(key)}"
            )
        self.name = name
        self._key = key
        self._payload = payload
        self.modeled_tuples: int = modeled_tuples
        self.location = location
        self.kind = kind

    @property
    def key(self) -> np.ndarray:
        return read_column(self._key)

    @property
    def payload(self) -> np.ndarray:
        return read_column(self._payload)

    def columns(self) -> Dict[str, Column]:
        """The ``key``/``payload`` columns as held: arrays, or deferred
        columns not yet read."""
        return {"key": self._key, "payload": self._payload}

    # ------------------------------------------------------------------
    # Cardinalities and sizes
    # ------------------------------------------------------------------
    @property
    def executed_tuples(self) -> int:
        return len(self._key)

    @property
    def tuple_bytes(self) -> int:
        return self.key_bytes + self.payload_bytes

    @property
    def key_bytes(self) -> int:
        return self._key.dtype.itemsize

    @property
    def payload_bytes(self) -> int:
        return self._payload.dtype.itemsize

    @property
    def modeled_bytes(self) -> int:
        return self.modeled_tuples * self.tuple_bytes

    @property
    def scale(self) -> float:
        """Executed fraction of the modeled cardinality (<= 1)."""
        if self.modeled_tuples == 0:
            return 1.0
        return self.executed_tuples / self.modeled_tuples

    @property
    def model_factor(self) -> float:
        """Multiplier from executed traffic to modeled traffic."""
        if self.executed_tuples == 0:
            return 1.0
        return self.modeled_tuples / self.executed_tuples

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def placed(self, location: str, kind: Optional[MemoryKind] = None) -> "Relation":
        """A view of this relation placed in another memory region."""
        return Relation(
            self.name,
            self._key,
            self._payload,
            self.modeled_tuples,
            location,
            kind or self.kind,
        )

    def __repr__(self) -> str:
        return (
            f"Relation({self.name}: {self.executed_tuples} executed / "
            f"{self.modeled_tuples} modeled tuples, {self.tuple_bytes} B/tuple, "
            f"in {self.location})"
        )


class ColumnTable:
    """Named columns plus modeled rows, location and memory kind: a base
    table such as TPC-H lineitem, as a selection scan and the logical
    algebra read it.

    Columns are given as arrays or as deferred columns; :meth:`columns`
    returns them as held and ``table[name]`` reads one.  The row count,
    dtypes, location and kind are known without reading a column.  The
    constructor is the one check of a table's shape: at least one
    one-dimensional column, all of one length, and modeled rows (which
    default to that length) not below it.
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Column],
        modeled_rows: Optional[int] = None,
        location: str = "cpu0-mem",
        kind: MemoryKind = MemoryKind.PAGEABLE,
    ) -> None:
        columns = dict(columns)
        if not columns:
            raise ValueError(f"table {name!r} needs at least one column")
        if any(column.ndim != 1 for column in columns.values()):
            raise ValueError(f"columns of table {name!r} must be one-dimensional")
        lengths = sorted({len(column) for column in columns.values()})
        if len(lengths) != 1:
            raise ValueError(f"ragged columns in table {name!r}: lengths {lengths}")
        executed_rows = lengths[0]
        if modeled_rows is None:
            modeled_rows = executed_rows
        if modeled_rows < executed_rows:
            raise ValueError(
                f"modeled cardinality {modeled_rows} below executed "
                f"cardinality {executed_rows} in table {name!r}"
            )
        self.name = name
        self._columns = columns
        self.executed_rows = executed_rows
        self.modeled_rows = int(modeled_rows)
        self.location = location
        self.kind = kind

    def columns(self) -> Dict[str, Column]:
        """The columns by name, as held: arrays, or deferred columns not
        yet read."""
        return dict(self._columns)

    def __getitem__(self, name: str) -> np.ndarray:
        """The array of column ``name`` (generating it if deferred)."""
        return read_column(self._columns[name])

    @property
    def model_factor(self) -> float:
        """Multiplier from executed traffic to modeled traffic."""
        if self.executed_rows == 0:
            return 1.0
        return self.modeled_rows / self.executed_rows

    @property
    def modeled_bytes(self) -> int:
        return self.modeled_rows * sum(
            column.dtype.itemsize for column in self._columns.values()
        )

    def placed(
        self, location: str, kind: Optional[MemoryKind] = None
    ) -> "ColumnTable":
        """The same columns placed in another memory region or kind."""
        return ColumnTable(
            self.name, self._columns, self.modeled_rows, location, kind or self.kind
        )
