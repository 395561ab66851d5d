"""Hash table base: SoA storage, access counters, common validation.

The join cost model consumes :class:`TableStats` — the exact numbers of
insert, probe-key, and probe-value accesses the functional execution
performed.  Because these counts are linear in tuple counts, they can
be rescaled to the modeled (paper-scale) cardinality.

The layout is struct-of-arrays: one key array and one value array.
Probes always touch the key array; the value array is touched only on a
match.  This is the layout behind Figure 20's observation that at low
selectivity most value bytes are never loaded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class TableStats:
    """Access counters maintained by the functional layer."""

    inserts: int = 0
    insert_probes: int = 0  # slot inspections during inserts (collisions)
    lookups: int = 0
    lookup_probes: int = 0  # slot inspections during lookups
    value_reads: int = 0  # value-array accesses (matches only)

    def reset(self) -> None:
        self.inserts = 0
        self.insert_probes = 0
        self.lookups = 0
        self.lookup_probes = 0
        self.value_reads = 0

    def merge(self, other: "TableStats") -> None:
        """Fold another stats block into this one.

        Every counter is an order-independent sum over tuples, so
        merging per-worker blocks in any order equals the counts a
        serial execution would have recorded.
        """
        self.inserts += other.inserts
        self.insert_probes += other.insert_probes
        self.lookups += other.lookups
        self.lookup_probes += other.lookup_probes
        self.value_reads += other.value_reads

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """All counters, for cross-backend equality assertions."""
        return (
            self.inserts,
            self.insert_probes,
            self.lookups,
            self.lookup_probes,
            self.value_reads,
        )

    @property
    def probe_factor(self) -> float:
        """Average slot inspections per lookup (1.0 for perfect hashing)."""
        if self.lookups == 0:
            return 1.0
        return self.lookup_probes / self.lookups

    @property
    def insert_factor(self) -> float:
        """Average slot inspections per insert (1.0 for perfect hashing)."""
        if self.inserts == 0:
            return 1.0
        return self.insert_probes / self.inserts


class HashTableBase:
    """Common state of the concrete hash tables."""

    #: sentinel for empty slots; workload keys are non-negative.
    EMPTY = -1

    #: set on :meth:`stats_view` copies.  Views share storage but reset
    #: ``size`` to zero, so schemes whose insert position depends on
    #: ``size`` (chaining's row cursor) or on a global occupancy count
    #: (open addressing's fit check) must refuse structure-mutating
    #: inserts through a view; only slot-disjoint schemes (perfect) can
    #: legally build through views.
    _is_view = False

    #: keys probed per kernel call, so that a block's hashes, slots and
    #: gathered keys stay cache-resident.  Measured flat from 2**17 to
    #: 2**19, slower below and 3x slower unblocked: a constant, not a knob.
    PROBE_BLOCK = 1 << 17

    def __init__(self, capacity: int, key_dtype, value_dtype) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.keys = np.full(self.capacity, self.EMPTY, dtype=key_dtype)
        self.values = np.zeros(self.capacity, dtype=value_dtype)
        self.stats = TableStats()
        self.size = 0

    # ------------------------------------------------------------------
    @property
    def entry_bytes(self) -> int:
        return self.keys.dtype.itemsize + self.values.dtype.itemsize

    @property
    def table_bytes(self) -> int:
        return self.capacity * self.entry_bytes

    @property
    def load_factor(self) -> float:
        return self.size / self.capacity

    def modeled_bytes(self, modeled_build_tuples: int) -> int:
        """Table size at paper scale, preserving this table's headroom.

        A perfect table sized exactly |R| models to ``|R| * entry``;
        an open-addressing table with 50% fill models to ~2x that.
        """
        if self.size == 0:
            return self.capacity * self.entry_bytes
        if modeled_build_tuples == self.size:
            # Modeling the actual build side is exactly this table —
            # bypass the float ratio, whose truncation can lose an entry.
            return self.table_bytes
        ratio = self.capacity / self.size
        return int(modeled_build_tuples * ratio) * self.entry_bytes

    # ------------------------------------------------------------------
    # Concurrent-worker support
    # ------------------------------------------------------------------
    def stats_view(self) -> "HashTableBase":
        """A shallow view sharing this table's storage with private counters.

        Concurrent workers each probe (or, for slot-disjoint schemes,
        build) through their own view so the ``stats``/``size``
        read-modify-writes never race; :meth:`absorb_view` folds the
        per-worker deltas back.  The view's ``size`` starts at zero and
        accumulates only the view's own inserts.
        """
        view = copy.copy(self)
        view.stats = TableStats()
        view.size = 0
        view._is_view = True
        return view

    def _check_not_view(self) -> None:
        """Refuse structure-mutating inserts through a stats view."""
        if self._is_view:
            raise ValueError(
                f"{type(self).__name__}: insert through a stats_view() is "
                "not allowed — the view's size=0 reset would corrupt the "
                "insert cursor/occupancy accounting; insert through the "
                "owning table instead"
            )

    def absorb_view(self, view: "HashTableBase") -> None:
        """Fold a view's private counters back into this table."""
        self.stats.merge(view.stats)
        self.size += view.size

    # ------------------------------------------------------------------
    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert a batch of unique (key, value) pairs."""
        raise NotImplementedError

    def lookup_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (found_mask, values); values are valid where found."""
        found = np.zeros(len(keys), dtype=bool)
        values = np.zeros(len(keys), dtype=self.values.dtype)
        self.lookup_into(keys, found, values)
        return found, values

    def lookup_into(
        self, keys: np.ndarray, found: np.ndarray, values: np.ndarray
    ) -> None:
        """Probe ``keys``, overwriting the caller's ``found`` and ``values``.

        ``values`` holds the stored value where found and zero elsewhere.
        The keys are walked in :attr:`PROBE_BLOCK`-sized slices so that a
        block's temporaries stay cache-resident; every counter is a
        per-tuple sum, so the blocking never shows in :class:`TableStats`.
        """
        self._check_batch(keys)
        self.stats.lookups += len(keys)
        for start in range(0, len(keys), self.PROBE_BLOCK):
            rows = slice(start, start + self.PROBE_BLOCK)
            block_found, block_values = found[rows], values[rows]
            hits = self._lookup_block(keys[rows], block_found, block_values)
            if hits < len(block_found):
                block_values[~block_found] = 0
            self.stats.value_reads += hits

    def _lookup_block(
        self, keys: np.ndarray, found: np.ndarray, values: np.ndarray
    ) -> int:
        """The scheme's probe kernel over one non-empty block.

        Sets ``found`` for every row and ``values`` where found (what it
        leaves at a miss is zeroed by the caller), adds the slots it
        inspected to ``stats.lookup_probes`` and returns the hit count.
        """
        raise NotImplementedError

    def _contains_any(self, keys: np.ndarray) -> np.ndarray:
        """Membership probe for validation, which is not part of the
        modeled join: it counts into a discarded view, never into
        ``TableStats`` (and everything priced from them)."""
        return self.stats_view().lookup_batch(keys)[0]

    def _check_batch(self, keys: np.ndarray, values: np.ndarray = None) -> None:
        """Validate a lookup batch, or an insert batch when ``values`` is given."""
        if keys.ndim != 1:
            raise ValueError("key batch must be one-dimensional")
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError(f"keys must have an integer dtype, got {keys.dtype}")
        if values is not None and len(values) != len(keys):
            raise ValueError(
                f"batch mismatch: {len(keys)} keys vs {len(values)} values"
            )
        if len(keys) and keys.min() < 0:
            raise ValueError("keys must be non-negative (EMPTY sentinel is -1)")
        # Stored keys are narrowed to the table's dtype; one that does
        # not fit would alias a smaller key.  Lookups compare un-narrowed
        # keys, so there an oversized key is simply absent.
        widest = np.iinfo(self.keys.dtype).max
        if values is not None and len(keys) and keys.max() > widest:
            raise ValueError(
                f"key {int(keys.max())} does not fit the table's "
                f"{self.keys.dtype} keys"
            )
