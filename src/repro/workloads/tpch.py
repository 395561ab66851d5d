"""TPC-H lineitem generator for query 6 (Figure 15).

Q6 is the paper's selection–aggregation workload::

    SELECT sum(l_extendedprice * l_discount)
    FROM lineitem
    WHERE l_shipdate >= date '1994-01-01'
      AND l_shipdate < date '1995-01-01'
      AND l_discount BETWEEN 0.05 AND 0.07
      AND l_quantity < 24;

The generator follows dbgen's essentials: ~6M rows per scale factor,
quantity uniform in [1, 50], discount in {0.00 .. 0.10}, and shipdates
spread over 1992–1998.  Like dbgen output (which is ordered by order
date), shipdates are *clustered*: generated sorted with bounded jitter.
That clustering is what lets the branching variant skip whole cache
lines of the other columns (Section 7.2.4), because the shipdate
predicate fails for long runs of consecutive rows.

Four 4-byte columns give 16 bytes/row: SF100 = 8.9 GiB, SF1000 =
89.4 GiB, matching the paper's working-set sizes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.data.relation import (
    Column,
    DeferredColumns,
    executed_cardinality,
    read_column,
)
from repro.hardware.memory import MemoryKind

ROWS_PER_SF = 6_000_000
BYTES_PER_ROW = 16  # 4 columns x 4 bytes

#: Days since 1992-01-01; shipdates span about seven years.
SHIPDATE_DAYS = 7 * 365
Q6_SHIPDATE_LO = 2 * 365  # 1994-01-01
Q6_SHIPDATE_HI = 3 * 365  # 1995-01-01
Q6_DISCOUNT_LO = 0.05
Q6_DISCOUNT_HI = 0.07
Q6_QUANTITY_LT = 24

Q6_PREDICATE = (
    "l_shipdate in [1994-01-01, 1995-01-01) and "
    "l_discount in [0.05, 0.07] and l_quantity < 24"
)


class Q6Workload:
    """Lineitem columns plus modeled cardinality.

    The four columns are given as arrays or as deferred columns (what
    :func:`lineitem_q6` returns); reading a column attribute returns its
    array.  The row count, dtypes, location and kind are known without
    reading a column.
    """

    def __init__(
        self,
        shipdate: Column,  # int32 days since 1992-01-01
        discount: Column,  # float32, {0.00, 0.01, ..., 0.10}
        quantity: Column,  # int32 in [1, 50]
        extendedprice: Column,  # float32
        scale_factor: float,
        modeled_rows: int,
        location: str = "cpu0-mem",
        kind: MemoryKind = MemoryKind.PAGEABLE,
    ) -> None:
        self._columns: Dict[str, Column] = {
            "l_shipdate": shipdate,
            "l_discount": discount,
            "l_quantity": quantity,
            "l_extendedprice": extendedprice,
        }
        self.scale_factor = scale_factor
        self.modeled_rows = modeled_rows
        self.location = location
        self.kind = kind

    @property
    def shipdate(self) -> np.ndarray:
        return read_column(self._columns["l_shipdate"])

    @property
    def discount(self) -> np.ndarray:
        return read_column(self._columns["l_discount"])

    @property
    def quantity(self) -> np.ndarray:
        return read_column(self._columns["l_quantity"])

    @property
    def extendedprice(self) -> np.ndarray:
        return read_column(self._columns["l_extendedprice"])

    @property
    def executed_rows(self) -> int:
        return len(self._columns["l_shipdate"])

    @property
    def modeled_bytes(self) -> int:
        return self.modeled_rows * BYTES_PER_ROW

    @property
    def model_factor(self) -> float:
        if self.executed_rows == 0:
            return 1.0
        return self.modeled_rows / self.executed_rows

    def columns(self) -> Dict[str, Column]:
        """The four lineitem columns, keyed by TPC-H name, as held:
        arrays, or deferred columns not yet read."""
        return dict(self._columns)

    def placed(
        self, location: str, kind: Optional[MemoryKind] = None
    ) -> "Q6Workload":
        """The same columns placed in another memory region or kind."""
        return Q6Workload(
            *self._columns.values(),
            scale_factor=self.scale_factor,
            modeled_rows=self.modeled_rows,
            location=location,
            kind=kind or self.kind,
        )


#: fewest executed rows, however small the scale.
MIN_EXECUTED_ROWS = 4096


def lineitem_q6(
    scale_factor: float,
    scale: float = 2.0**-9,
    seed: int = 7,
    shipdate_jitter_days: int = 60,
) -> Q6Workload:
    """A Q6 lineitem table whose columns are generated on first read.

    Args:
        scale_factor: TPC-H scale factor; modeled rows = 6M x SF.
        scale: executed fraction of the modeled rows.
        shipdate_jitter_days: window of the shipdate clustering; 0 means
            perfectly sorted shipdates, larger values weaken clustering
            (and with it the branching variant's skip opportunity).
    """
    if scale_factor <= 0:
        raise ValueError(f"scale factor must be positive: {scale_factor}")
    if shipdate_jitter_days < 0:
        raise ValueError(
            f"shipdate_jitter_days must be non-negative: {shipdate_jitter_days}"
        )
    modeled_rows = int(ROWS_PER_SF * scale_factor)
    rows = executed_cardinality(modeled_rows, scale, MIN_EXECUTED_ROWS)
    columns = DeferredColumns(
        {
            "l_shipdate": (rows, np.int32),
            "l_discount": (rows, np.float32),
            "l_quantity": (rows, np.int32),
            "l_extendedprice": (rows, np.float32),
        },
        lambda: _lineitem_columns(rows, seed, shipdate_jitter_days),
    )
    return Q6Workload(
        shipdate=columns.column("l_shipdate"),
        discount=columns.column("l_discount"),
        quantity=columns.column("l_quantity"),
        extendedprice=columns.column("l_extendedprice"),
        scale_factor=scale_factor,
        modeled_rows=modeled_rows,
    )


def _lineitem_columns(
    rows: int, seed: int, shipdate_jitter_days: int
) -> Dict[str, np.ndarray]:
    """Generate the four columns from one rng stream, in place where the
    ``rng`` calls (which fix the stream) leave a choice."""
    rng = np.random.default_rng(seed)

    # Bounded draws over ranges below 2**32 yield the same values and
    # consume the same stream whether drawn as int32 or int64.
    days = rng.integers(0, SHIPDATE_DAYS, size=rows, dtype=np.int32)
    # Sorting by counting: the shipdates take only SHIPDATE_DAYS values.
    shipdate = np.repeat(
        np.arange(SHIPDATE_DAYS, dtype=np.int32),
        np.bincount(days, minlength=SHIPDATE_DAYS),
    )
    if shipdate_jitter_days > 0:
        shipdate += rng.integers(
            -shipdate_jitter_days,
            shipdate_jitter_days + 1,
            size=rows,
            dtype=np.int32,
        )
        np.clip(shipdate, 0, SHIPDATE_DAYS - 1, out=shipdate)

    discount_levels = (np.arange(11) / 100.0).astype(np.float32)
    discount = discount_levels[rng.integers(0, 11, size=rows, dtype=np.int32)]
    quantity = rng.integers(1, 51, size=rows, dtype=np.int32)
    extendedprice = rng.random(rows, dtype=np.float32)
    extendedprice *= 90000.0
    extendedprice += 900.0
    return {
        "l_shipdate": shipdate,
        "l_discount": discount,
        "l_quantity": quantity,
        "l_extendedprice": extendedprice,
    }
