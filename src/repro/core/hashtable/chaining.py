"""Chaining hash table with array-backed buckets.

Chains are represented with a ``next`` index array (the classic
"bucket-chained" layout used by main-memory joins): ``heads[b]`` points
at the newest entry of bucket ``b``, each entry stores key, value, and
the index of the next entry.  Inserting prepends — exactly the atomic
exchange a parallel chaining build performs on the head pointer.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashtable.base import HashTableBase
from repro.core.hashtable.hash_functions import bucket_of, next_power_of_two


class ChainingHashTable(HashTableBase):
    """Bucket-chained table; one entry slot per expected build tuple.

    Duplicate keys are rejected by default — the same contract perfect
    hashing and open addressing enforce, so cross-scheme probe results
    never diverge on the same input (a chain *can* hold several entries
    per key, but the probe kernel walks each block of keys one chain
    link per round and drops a key at its first hit, silently shadowing
    the older ones).  Multi-match workloads that genuinely
    want shadow-free duplicate storage opt in with
    ``allow_duplicates=True``.
    """

    NIL = -1

    def __init__(
        self,
        expected_size: int,
        key_dtype=np.int64,
        value_dtype=np.int64,
        buckets_per_entry: float = 1.0,
        allow_duplicates: bool = False,
    ):
        if buckets_per_entry <= 0:
            raise ValueError("buckets_per_entry must be positive")
        capacity = max(1, int(expected_size))
        super().__init__(capacity, key_dtype, value_dtype)
        n_buckets = next_power_of_two(max(2, int(capacity * buckets_per_entry)))
        self.heads = np.full(n_buckets, self.NIL, dtype=np.int64)
        self.next = np.full(capacity, self.NIL, dtype=np.int64)
        self.n_buckets = n_buckets
        self.allow_duplicates = allow_duplicates

    @property
    def table_bytes(self) -> int:
        head_bytes = self.heads.nbytes
        entry_bytes = self.keys.nbytes + self.values.nbytes + self.next.nbytes
        return head_bytes + entry_bytes

    def modeled_bytes(self, modeled_build_tuples: int) -> int:
        """Paper-scale size including ``next`` pointers and bucket heads.

        The base implementation prices ``entry_bytes = key + value``
        only, undercounting a chained table by the 8-byte ``next`` entry
        and the head array — enough to under-reserve memory in the
        Fig. 8/11 placement decisions.  Scale the entry region (keys,
        values, next) and the head array by the same capacity ratio so
        ``modeled_bytes(size) == table_bytes`` for a full table.
        """
        if self.size == 0 or modeled_build_tuples == self.size:
            return self.table_bytes
        ratio = self.capacity / self.size
        modeled_capacity = int(modeled_build_tuples * ratio)
        per_entry = self.entry_bytes + self.next.dtype.itemsize
        modeled_heads = int(
            round(self.n_buckets * (modeled_capacity / self.capacity))
        )
        return modeled_capacity * per_entry + modeled_heads * self.heads.dtype.itemsize

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_batch(keys, values)
        # A view's size=0 reset would restart the row cursor at zero and
        # overwrite live entries — structure mutation must go through
        # the owning table.
        self._check_not_view()
        n = len(keys)
        if n == 0:
            return
        if self.size + n > self.capacity:
            raise ValueError(
                f"batch of {n} does not fit: {self.size}/{self.capacity}"
            )
        if not self.allow_duplicates:
            unique, counts = np.unique(keys, return_counts=True)
            if len(unique) != len(keys):
                raise ValueError(
                    "duplicate key insert (join build expects unique keys): "
                    f"{int(unique[counts > 1][0])}"
                )
            present = self._contains_any(keys)
            if present.any():
                raise ValueError(
                    "duplicate key insert (join build expects unique keys): "
                    f"{int(keys[present][0])}"
                )
        rows = np.arange(self.size, self.size + n)
        buckets = bucket_of(keys, self.n_buckets)
        self.keys[rows] = keys
        self.values[rows] = values
        # Sequentialize head swaps per bucket, batch-wise: group entries
        # by bucket (stable, so batch order is preserved within a group);
        # the first entry of each group links to the bucket's old head,
        # later entries link to their in-batch predecessor, and the last
        # entry of each group becomes the new head.
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        sorted_rows = rows[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_buckets[1:], sorted_buckets[:-1], out=starts[1:])
        chain = np.empty(n, dtype=np.int64)
        chain[starts] = self.heads[sorted_buckets[starts]]
        chain[~starts] = sorted_rows[np.flatnonzero(~starts) - 1]
        self.next[sorted_rows] = chain
        lasts = np.empty(n, dtype=bool)
        lasts[-1] = True
        np.not_equal(sorted_buckets[1:], sorted_buckets[:-1], out=lasts[:-1])
        self.heads[sorted_buckets[lasts]] = sorted_rows[lasts]
        self.size += n
        self.stats.inserts += n
        self.stats.insert_probes += n

    def _lookup_block(
        self, keys: np.ndarray, found: np.ndarray, values: np.ndarray
    ) -> int:
        # Every lookup inspects its bucket head — chained tables pay one
        # extra dependent read compared to open addressing.
        probes = len(keys)
        hits = 0
        found[:] = False
        cursor = self.heads.take(bucket_of(keys, self.n_buckets))
        pending = np.flatnonzero(cursor != self.NIL)
        probe_keys = keys.take(pending)
        cursor = cursor.take(pending)
        while len(pending):
            probes += len(pending)
            hit = self.keys.take(cursor) == probe_keys
            hit_at = np.flatnonzero(hit)
            if len(hit_at):
                hits += len(hit_at)
                hit_rows = pending.take(hit_at)
                found[hit_rows] = True
                values[hit_rows] = self.values.take(cursor.take(hit_at))
            cursor = self.next.take(cursor)
            keep = np.flatnonzero((cursor != self.NIL) & ~hit)
            pending = pending.take(keep)
            probe_keys = probe_keys.take(keep)
            cursor = cursor.take(keep)
        self.stats.lookup_probes += probes
        return hits
