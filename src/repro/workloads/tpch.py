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

from typing import Dict

import numpy as np

from repro.data.relation import ColumnTable, DeferredColumns, executed_cardinality

ROWS_PER_SF = 6_000_000

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


#: fewest executed rows, however small the scale.
MIN_EXECUTED_ROWS = 4096


def lineitem_q6(
    scale_factor: float,
    scale: float = 2.0**-9,
    seed: int = 7,
    shipdate_jitter_days: int = 60,
) -> ColumnTable:
    """The ``lineitem`` table Q6 reads, in pageable CPU memory, with
    columns generated on first read.

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
    return ColumnTable(
        "lineitem",
        {name: columns.column(name) for name in columns.shapes},
        modeled_rows,
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
