"""The open-addressing build kernel equals its earlier, plainer form.

``OpenAddressingHashTable.insert_batch`` skips the duplicate-key probe on
an empty table and compacts the pending rows with ``flatnonzero`` +
``take``.  ``PlainKernel`` below is the kernel as it was before those two
changes, verbatim but for its comments.  On any drawn sequence of
batches both must leave the same slots, size and counters, and raise
the same error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable.open_addressing import OpenAddressingHashTable


class PlainKernel(OpenAddressingHashTable):
    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._check_batch(keys, values)
        self._check_not_view()
        if len(keys) == 0:
            return
        if self.size + len(keys) > self.capacity:
            raise ValueError(
                f"batch of {len(keys)} does not fit: {self.size}/{self.capacity}"
            )
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
        pending_keys = keys.astype(self.keys.dtype, copy=True)
        pending_values = values.astype(self.values.dtype, copy=True)
        slots = self._home_slots(pending_keys)
        rounds = 0
        while len(pending_keys):
            rounds += 1
            if rounds > self.capacity + 1:
                raise RuntimeError("insert did not converge; table corrupted?")
            self.stats.insert_probes += len(pending_keys)
            empty = self.keys[slots] == self.EMPTY
            claim = np.flatnonzero(empty)
            if len(claim):
                claim_slots = slots[claim]
                self.keys[claim_slots] = pending_keys[claim]
                self.values[claim_slots] = pending_values[claim]
                won = self.keys[slots[claim]] == pending_keys[claim]
                winners = claim[won]
                self.size += len(winners)
                self.stats.inserts += len(winners)
                lost = np.ones(len(pending_keys), dtype=bool)
                lost[winners] = False
            else:
                lost = np.ones(len(pending_keys), dtype=bool)
            pending_keys = pending_keys[lost]
            pending_values = pending_values[lost]
            slots = (slots[lost] + 1) & self._mask


def _outcome(table, keys, values):
    try:
        table.insert_batch(keys, values)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


@st.composite
def builds(draw):
    expected = draw(st.integers(1, 96))
    load = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    key_dtype = draw(st.sampled_from([np.int32, np.int64]))
    # Keys from a range a few times the capacity: home slots collide,
    # and later batches repeat keys already stored.
    key_range = 4 * expected
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        batch = draw(
            st.lists(st.integers(0, key_range), max_size=48, unique=True)
        )
        if batch and draw(st.booleans()):
            batch.append(draw(st.sampled_from(batch)))  # within-batch duplicate
        batches.append(batch)
    return expected, load, key_dtype, batches


@given(build=builds(), batch_dtype=st.sampled_from([np.int32, np.int64]))
@settings(max_examples=120, deadline=None)
def test_build_matches_the_plain_kernel(build, batch_dtype):
    expected, load, key_dtype, batches = build
    fast = OpenAddressingHashTable(expected, key_dtype, np.int64, load)
    plain = PlainKernel(expected, key_dtype, np.int64, load)
    for number, batch in enumerate(batches):
        keys = np.array(batch, dtype=batch_dtype)
        values = keys.astype(np.int64) * 3 + number
        assert _outcome(fast, keys, values) == _outcome(plain, keys, values)
        assert fast.size == plain.size
        assert fast.stats.as_tuple() == plain.stats.as_tuple()
        np.testing.assert_array_equal(fast.keys, plain.keys)
        np.testing.assert_array_equal(fast.values, plain.values)
        assert fast.keys.dtype == plain.keys.dtype


def test_a_large_build_matches_the_plain_kernel():
    rng = np.random.default_rng(5)
    keys = rng.permutation(1 << 14)[: 1 << 12].astype(np.int64)
    fast = OpenAddressingHashTable(len(keys), load_factor=0.9)
    plain = PlainKernel(len(keys), load_factor=0.9)
    for half in np.array_split(keys, 2):
        fast.insert_batch(half, half + 1)
        plain.insert_batch(half, half + 1)
    assert fast.stats.as_tuple() == plain.stats.as_tuple()
    assert fast.stats.insert_probes > fast.stats.inserts  # collisions happened
    np.testing.assert_array_equal(fast.keys, plain.keys)
    np.testing.assert_array_equal(fast.values, plain.values)
