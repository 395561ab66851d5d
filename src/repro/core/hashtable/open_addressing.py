"""Open-addressing hash table with linear probing (vectorized).

This is the general-purpose table for non-dense keys.  Batch inserts
emulate the GPU's CAS loop: in each round, every pending key attempts
its current slot; losers (occupied by a different key, or lost the
within-batch race) advance to the next slot.  numpy resolves the
within-round race deterministically ("last writer wins" per slot), and
the fix-up pass re-queues overwritten keys exactly as a failed CAS
would, so the result equals a sequential insertion.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashtable.base import HashTableBase
from repro.core.hashtable.hash_functions import bucket_of, next_power_of_two


class OpenAddressingHashTable(HashTableBase):
    """Linear-probing table; capacity is rounded up to a power of two.

    A probe runs one gather-compare round per probe distance over each
    block of keys, compacting the unresolved rows between rounds.
    """

    #: default fill target: capacity = 2x the expected build size.
    DEFAULT_LOAD = 0.5

    def __init__(
        self,
        expected_size: int,
        key_dtype=np.int64,
        value_dtype=np.int64,
        load_factor: float = DEFAULT_LOAD,
    ):
        if not 0 < load_factor <= 0.9:
            raise ValueError(f"load factor must be in (0, 0.9], got {load_factor}")
        capacity = next_power_of_two(max(2, int(expected_size / load_factor)))
        super().__init__(capacity, key_dtype, value_dtype)
        self._mask = np.int64(self.capacity - 1)

    def _home_slots(self, keys: np.ndarray) -> np.ndarray:
        return bucket_of(keys, self.capacity)

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_batch(keys, values)
        self._check_not_view()
        if len(keys) == 0:
            return
        if self.size + len(keys) > self.capacity:
            raise ValueError(
                f"batch of {len(keys)} does not fit: {self.size}/{self.capacity}"
            )
        # Within-batch duplicates would both pass the post-scatter `won`
        # re-read (both compare equal to the stored key), silently
        # dropping one value while counting two winners — reject them
        # up front with the same error the existing-key path raises.
        unique, counts = np.unique(keys, return_counts=True)
        if len(unique) != len(keys):
            raise ValueError(
                "duplicate key insert (join build expects unique keys): "
                f"{int(unique[counts > 1][0])}"
            )
        # Validate against *existing* keys before any scatter: a raise
        # mid-round used to leave earlier rounds' winners written and
        # ``size`` advanced — a corrupted table after a reported failure.
        # All raises now happen before the first mutation, so a failed
        # insert leaves the table bit-identical to its pre-call state.
        # An empty table holds no key, so its first batch skips the probe.
        if self.size:
            present = self._contains_any(keys)
            if present.any():
                raise ValueError(
                    "duplicate key insert (join build expects unique keys): "
                    f"{int(keys[present][0])}"
                )
        pending_keys = keys.astype(self.keys.dtype, copy=True)
        pending_values = values.astype(self.values.dtype, copy=True)
        slots = self._home_slots(pending_keys)
        rounds = 0
        while len(pending_keys):
            rounds += 1
            if rounds > self.capacity + 1:
                raise RuntimeError("insert did not converge; table corrupted?")
            self.stats.insert_probes += len(pending_keys)
            # Claim empty slots; numpy scatter keeps the *last* writer per
            # slot, so re-read to find the actual winners (emulated CAS).
            claim = np.flatnonzero(self.keys.take(slots) == self.EMPTY)
            if len(claim):
                claim_slots = slots.take(claim)
                claim_keys = pending_keys.take(claim)
                self.keys[claim_slots] = claim_keys
                self.values[claim_slots] = pending_values.take(claim)
                won = self.keys.take(claim_slots) == claim_keys
                winners = claim[won]
                self.size += len(winners)
                self.stats.inserts += len(winners)
                lost = np.ones(len(pending_keys), dtype=bool)
                lost[winners] = False
                keep = np.flatnonzero(lost)
                pending_keys = pending_keys.take(keep)
                pending_values = pending_values.take(keep)
                slots = slots.take(keep)
            slots = (slots + 1) & self._mask

    def _lookup_block(
        self, keys: np.ndarray, found: np.ndarray, values: np.ndarray
    ) -> int:
        # Round one needs no indirection: row i probes slots[i].  Every
        # row's value is gathered in one go, which beats compacting the
        # hits first; the caller zeroes what a final miss leaves behind.
        slots = self._home_slots(keys)
        slot_keys = self.keys.take(slots)
        np.equal(slot_keys, keys, out=found)
        self.values.take(slots, mode="clip", out=values)
        hits = int(np.count_nonzero(found))
        probes = len(keys)
        # Later rounds carry the unresolved rows with their keys and
        # slots.  After `capacity` rounds a key has inspected every slot
        # and is absent; this bound (not an EMPTY sentinel) terminates
        # absent keys in a 100%-full table, which insert_batch permits.
        pending = np.flatnonzero((slot_keys != self.EMPTY) & ~found)
        probe_keys, slots = keys.take(pending), slots.take(pending)
        rounds = 1
        while len(pending) and rounds < self.capacity:
            rounds += 1
            probes += len(pending)
            slots = (slots + 1) & self._mask
            slot_keys = self.keys.take(slots)
            hit = slot_keys == probe_keys
            hit_at = np.flatnonzero(hit)
            if len(hit_at):
                hits += len(hit_at)
                hit_rows = pending.take(hit_at)
                found[hit_rows] = True
                values[hit_rows] = self.values.take(slots.take(hit_at))
            keep = np.flatnonzero((slot_keys != self.EMPTY) & ~hit)
            pending = pending.take(keep)
            probe_keys = probe_keys.take(keep)
            slots = slots.take(keep)
        self.stats.lookup_probes += probes
        return hits
