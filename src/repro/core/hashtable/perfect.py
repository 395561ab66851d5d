"""Perfect hash table: ``slot = key``, no conflicts by construction.

The paper's evaluation setting (Section 7.1): "we set up our
no-partitioning hash join with perfect hashing, i.e., we assume no hash
conflicts occur due to the uniqueness of primary keys".  The workload
generators emit R keys as a permutation of a dense domain, so the
identity mapping is a genuine minimal perfect hash.  Inserting a key
outside [0, capacity) is a contract violation and raises.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashtable.base import HashTableBase


class PerfectHashTable(HashTableBase):
    """Dense-domain perfect hashing (the paper's NOPA configuration).

    A probe is one gather and one compare per block of keys.
    """

    def __init__(self, capacity: int, key_dtype=np.int64, value_dtype=np.int64):
        super().__init__(capacity, key_dtype, value_dtype)

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_batch(keys, values)
        if len(keys) == 0:
            return
        lo, hi = int(keys.min()), int(keys.max())
        if hi >= self.capacity:
            raise ValueError(
                f"key {hi} outside the perfect-hash domain [0, {self.capacity})"
            )
        # Within-batch duplicates both map to the same slot, both see it
        # EMPTY, and the scatter keeps the last writer — while size and
        # stats.inserts would count every copy.  Reject them before any
        # mutation (mirroring the open-addressing contract): scattered
        # over the batch's key span, unique keys mark one cell each.
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[keys - lo] = True
        if np.count_nonzero(seen) != len(keys):
            unique, counts = np.unique(keys, return_counts=True)
            raise ValueError(
                "perfect hashing requires unique keys; duplicate insert for "
                f"key {int(unique[counts > 1][0])}"
            )
        # Read-only index: an int64 batch is used as is, not copied.
        slots = keys.astype(np.int64, copy=False)
        occupied = self.keys[slots] != self.EMPTY
        if occupied.any():
            raise ValueError(
                "perfect hashing requires unique keys; duplicate insert for "
                f"key {int(keys[occupied][0])}"
            )
        self.keys[slots] = keys
        self.values[slots] = values
        self.size += len(keys)
        self.stats.inserts += len(keys)
        self.stats.insert_probes += len(keys)

    def _lookup_block(
        self, keys: np.ndarray, found: np.ndarray, values: np.ndarray
    ) -> int:
        # mode="clip" sends an out-of-domain key to the last slot, whose
        # key is below the capacity and so cannot equal it.
        np.equal(self.keys.take(keys, mode="clip"), keys, out=found)
        self.values.take(keys, mode="clip", out=values)
        self.stats.lookup_probes += len(keys)
        return int(np.count_nonzero(found))
