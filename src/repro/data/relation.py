"""Column-oriented relations with dual cardinality.

A relation knows its shape — executed row count, column dtypes, modeled
cardinality, location and memory kind — without its arrays.  Planning
prices from that shape alone; only the functional layer reads the numpy
columns.  A generated relation holds deferred columns whose arrays are
produced on that first read (:class:`DeferredColumns`); a relation
built from arrays holds them from the start.

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
from typing import Callable, ClassVar, Dict, Iterator, Mapping, Optional, Tuple, Union

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
    # Placement and slicing
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

    def slice(self, part: slice) -> "Relation":
        """A zero-copy view of a tuple range (used by morsel dispatch)."""
        key = self.key[part]
        return Relation(
            name=self.name,
            key=key,
            payload=self.payload[part],
            modeled_tuples=max(1, len(key)),
            location=self.location,
            kind=self.kind,
        )

    def morsels(self, morsel_tuples: int) -> Iterator["Morsel"]:
        """Fixed-size morsels over the executed tuples (Section 6.1)."""
        if morsel_tuples <= 0:
            raise ValueError(f"morsel size must be positive: {morsel_tuples}")
        for start in range(0, self.executed_tuples, morsel_tuples):
            end = min(start + morsel_tuples, self.executed_tuples)
            yield Morsel(relation=self, start=start, end=end)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name}: {self.executed_tuples} executed / "
            f"{self.modeled_tuples} modeled tuples, {self.tuple_bytes} B/tuple, "
            f"in {self.location})"
        )


@dataclass(frozen=True)
class Morsel:
    """A fixed-size chunk of a relation handed out by the dispatcher."""

    relation: Relation
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end <= self.relation.executed_tuples:
            raise ValueError(
                f"morsel [{self.start}, {self.end}) out of bounds for "
                f"{self.relation.executed_tuples} tuples"
            )

    @property
    def tuples(self) -> int:
        return self.end - self.start

    @property
    def keys(self) -> np.ndarray:
        return self.relation.key[self.start : self.end]

    @property
    def payloads(self) -> np.ndarray:
        return self.relation.payload[self.start : self.end]
