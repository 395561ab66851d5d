"""The three hash tables: perfect, open addressing, chaining.

Shared behavioural tests run against all three; scheme-specific tests
cover their individual contracts.
"""

import threading

import numpy as np
import pytest

from repro.core.hashtable import HashTableBase, create_hash_table
from repro.core.hashtable.chaining import ChainingHashTable
from repro.core.hashtable.hash_functions import bucket_of
from repro.core.hashtable.open_addressing import OpenAddressingHashTable
from repro.core.hashtable.perfect import PerfectHashTable
from repro.exec.functional import execute_build
from repro.exec.pool import MorselExecutor

SCHEMES = ("perfect", "open_addressing", "chaining")


def build_table(scheme, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    values = keys * 10 + 1
    table = create_hash_table(scheme, n, np.int64, np.int64)
    table.insert_batch(keys, values)
    return table, keys, values


@pytest.mark.parametrize("scheme", SCHEMES)
class TestSharedBehaviour:
    def test_lookup_finds_all_inserted(self, scheme):
        table, keys, values = build_table(scheme)
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(got, values)

    def test_lookup_misses_absent_keys(self, scheme):
        table, keys, _ = build_table(scheme, n=500)
        absent = np.arange(500, 1000, dtype=np.int64)
        found, _ = table.lookup_batch(absent)
        assert not found.any()

    def test_mixed_hits_and_misses(self, scheme):
        table, keys, values = build_table(scheme, n=256)
        probes = np.concatenate([keys[:100], np.arange(256, 356)])
        found, got = table.lookup_batch(probes.astype(np.int64))
        assert found[:100].all()
        assert not found[100:].any()
        assert np.array_equal(got[:100], values[:100])

    def test_stats_count_lookups(self, scheme):
        table, keys, _ = build_table(scheme, n=100)
        table.stats.reset()
        table.lookup_batch(keys[:40])
        assert table.stats.lookups == 40
        assert table.stats.lookup_probes >= 40
        assert table.stats.value_reads == 40

    def test_stats_count_inserts(self, scheme):
        table, keys, _ = build_table(scheme, n=100)
        assert table.stats.inserts == 100
        assert table.stats.insert_probes >= 100

    def test_size_tracked(self, scheme):
        table, _, __ = build_table(scheme, n=300)
        assert table.size == 300
        assert 0 < table.load_factor <= 1.0

    def test_empty_batches(self, scheme):
        table = create_hash_table(scheme, 16, np.int64, np.int64)
        table.insert_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        found, values = table.lookup_batch(np.array([], dtype=np.int64))
        assert len(found) == 0 and len(values) == 0

    def test_negative_keys_rejected(self, scheme):
        table = create_hash_table(scheme, 16, np.int64, np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64)
            )

    def test_batch_length_mismatch_rejected(self, scheme):
        table = create_hash_table(scheme, 16, np.int64, np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([1, 2], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    def test_int32_tuples(self, scheme):
        rng = np.random.default_rng(3)
        keys = rng.permutation(200).astype(np.int32)
        table = create_hash_table(scheme, 200, np.int32, np.int32)
        table.insert_batch(keys, keys)
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert table.entry_bytes == 8

    def test_modeled_bytes_scales_with_build_side(self, scheme):
        table, _, __ = build_table(scheme, n=1000)
        small = table.modeled_bytes(10**6)
        large = table.modeled_bytes(10**7)
        assert large == pytest.approx(10 * small, rel=0.01)


class TestPerfectSpecifics:
    def test_identity_slots(self):
        table = PerfectHashTable(16)
        keys = np.array([3, 7], dtype=np.int64)
        table.insert_batch(keys, keys * 2)
        assert table.keys[3] == 3
        assert table.values[7] == 14

    def test_out_of_domain_insert_rejected(self):
        table = PerfectHashTable(16)
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([16], dtype=np.int64), np.array([0], dtype=np.int64)
            )

    def test_out_of_domain_lookup_is_miss(self):
        table = PerfectHashTable(16)
        table.insert_batch(
            np.arange(16, dtype=np.int64), np.arange(16, dtype=np.int64)
        )
        found, _ = table.lookup_batch(np.array([100], dtype=np.int64))
        assert not found.any()

    def test_duplicate_insert_rejected(self):
        table = PerfectHashTable(16)
        keys = np.array([5], dtype=np.int64)
        table.insert_batch(keys, keys)
        with pytest.raises(ValueError):
            table.insert_batch(keys, keys)

    def test_exactly_one_probe_per_lookup(self):
        table, keys, _ = build_table("perfect", n=512)
        table.stats.reset()
        table.lookup_batch(keys)
        assert table.stats.probe_factor == 1.0


class TestOpenAddressingSpecifics:
    def test_capacity_is_power_of_two_with_headroom(self):
        table = OpenAddressingHashTable(1000)
        assert table.capacity == 2048  # 1000 / 0.5 rounded up

    def test_collisions_resolved_by_linear_probing(self):
        # Force collisions with a tiny table.
        table = OpenAddressingHashTable(8, load_factor=0.9)
        keys = np.arange(7, dtype=np.int64)
        table.insert_batch(keys, keys)
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(got, keys)

    def test_probe_factor_above_one_when_loaded(self):
        table = OpenAddressingHashTable(600, load_factor=0.75)
        keys = np.random.default_rng(1).permutation(600).astype(np.int64)
        table.insert_batch(keys, keys)
        table.stats.reset()
        table.lookup_batch(keys)
        assert table.stats.probe_factor > 1.0

    def test_overflow_rejected(self):
        table = OpenAddressingHashTable(4, load_factor=0.5)
        keys = np.arange(table.capacity + 1, dtype=np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(keys, keys)

    def test_duplicate_rejected(self):
        table = OpenAddressingHashTable(16)
        keys = np.array([4], dtype=np.int64)
        table.insert_batch(keys, keys)
        with pytest.raises(ValueError):
            table.insert_batch(keys, keys)

    def test_within_batch_duplicate_rejected(self):
        # Regression: a duplicate inside one batch used to be silently
        # dropped (both copies pass the post-scatter re-read, one value
        # lost) while still inflating `size` by two.
        table = OpenAddressingHashTable(16)
        keys = np.array([3, 7, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate key insert"):
            table.insert_batch(keys, keys * 10)
        assert table.size == 0  # rejected up front, nothing inserted

    def test_lookup_absent_key_in_full_table_terminates(self):
        # Regression: with the table 100% full no slot is ever EMPTY, so
        # lookups for absent keys never hit the miss sentinel and the
        # probe loop used to exhaust its round budget and raise
        # RuntimeError("lookup did not converge").  Absent keys in a full
        # table are a legal query and must simply return not-found.
        table = OpenAddressingHashTable(8, load_factor=0.9)
        keys = np.arange(table.capacity, dtype=np.int64)
        table.insert_batch(keys, keys * 2)
        assert table.load_factor == 1.0
        absent = np.array([table.capacity + 5, table.capacity + 9], dtype=np.int64)
        found, _ = table.lookup_batch(absent)
        assert not found.any()
        # present keys still resolve in the same full table
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(got, keys * 2)

    def test_load_factor_validation(self):
        with pytest.raises(ValueError):
            OpenAddressingHashTable(16, load_factor=0.95)

    def test_incremental_batches(self):
        table = OpenAddressingHashTable(1000)
        rng = np.random.default_rng(2)
        keys = rng.permutation(1000).astype(np.int64)
        for start in range(0, 1000, 100):
            chunk = keys[start : start + 100]
            table.insert_batch(chunk, chunk * 2)
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(got, keys * 2)


class TestChainingSpecifics:
    def test_chains_traversed(self):
        # One bucket forces a single chain holding everything.
        table = ChainingHashTable(32, buckets_per_entry=1 / 16)
        keys = np.arange(32, dtype=np.int64)
        table.insert_batch(keys, keys * 3)
        found, got = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(got, keys * 3)

    def test_table_bytes_include_chain_pointers(self):
        table = ChainingHashTable(100)
        flat = 100 * table.entry_bytes
        assert table.table_bytes > flat

    def test_overflow_rejected(self):
        table = ChainingHashTable(4)
        keys = np.arange(5, dtype=np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(keys, keys)

    def test_probe_factor_grows_with_chain_length(self):
        packed = ChainingHashTable(256, buckets_per_entry=1 / 64)
        keys = np.arange(256, dtype=np.int64)
        packed.insert_batch(keys, keys)
        packed.stats.reset()
        packed.lookup_batch(keys)
        assert packed.stats.probe_factor > 2.0


def test_factory_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        create_hash_table("cuckoo", 16, np.int64, np.int64)


class TestInvariantRegressions:
    """The four hardened invariants of the duplicate/view/bytes contract."""

    def test_perfect_within_batch_duplicate_rejected(self):
        # Regression: `slots = keys` scatters both copies to the same
        # slot — the last write silently wins, one value is lost, and
        # `size` claims both.  The batch must be rejected up front.
        table = PerfectHashTable(16)
        keys = np.array([2, 9, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="unique keys"):
            table.insert_batch(keys, keys * 10)
        assert table.size == 0
        assert (table.keys == table.EMPTY).all()

    def test_perfect_size_equals_occupied_slots(self):
        # The pinned invariant: after any successful insert sequence,
        # `size` equals the number of occupied slots.
        table = PerfectHashTable(64)
        rng = np.random.default_rng(3)
        keys = rng.permutation(64)[:40].astype(np.int64)
        table.insert_batch(keys[:25], keys[:25])
        table.insert_batch(keys[25:], keys[25:])
        assert table.size == int(np.count_nonzero(table.keys != table.EMPTY))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_modeled_bytes_exact_for_full_table(self, scheme):
        # Regression: the base accounting priced key+value bytes only,
        # undercounting chaining's next pointers and bucket heads (and
        # float truncation could lose an entry).  Modeling the actual
        # build side must reproduce the actual table exactly.
        table, _, _ = build_table(scheme, n=1000)
        assert table.modeled_bytes(table.size) == table.table_bytes

    def test_open_addressing_failed_insert_leaves_table_bit_identical(self):
        # Exception safety: validation precedes any scatter, so a
        # rejected batch leaves storage, size, and stats untouched.
        table = OpenAddressingHashTable(64)
        keys = np.arange(32, dtype=np.int64)
        table.insert_batch(keys, keys * 2)
        before_keys = table.keys.copy()
        before_values = table.values.copy()
        before_stats = table.stats.as_tuple()
        before_size = table.size
        clash = np.array([100, 5, 101], dtype=np.int64)  # 5 already present
        with pytest.raises(ValueError, match="duplicate key insert"):
            table.insert_batch(clash, clash)
        assert np.array_equal(table.keys, before_keys)
        assert np.array_equal(table.values, before_values)
        assert table.stats.as_tuple() == before_stats
        assert table.size == before_size

    def test_chaining_rejects_duplicates_by_default(self):
        table = ChainingHashTable(16)
        keys = np.array([4], dtype=np.int64)
        table.insert_batch(keys, keys)
        with pytest.raises(ValueError, match="duplicate key insert"):
            table.insert_batch(keys, keys * 2)
        with pytest.raises(ValueError, match="duplicate key insert"):
            table.insert_batch(np.array([7, 7], dtype=np.int64),
                               np.zeros(2, dtype=np.int64))
        assert table.size == 1

    def test_chaining_duplicates_need_explicit_opt_in(self):
        table = ChainingHashTable(16, allow_duplicates=True)
        keys = np.array([4, 4, 4], dtype=np.int64)
        table.insert_batch(keys, np.array([1, 2, 3], dtype=np.int64))
        assert table.size == 3

    @pytest.mark.parametrize("scheme", ("open_addressing", "chaining"))
    def test_insert_through_stats_view_rejected(self, scheme):
        # A view's size=0 reset would corrupt chaining's row cursor and
        # open addressing's occupancy check; only slot-disjoint perfect
        # builds may go through views.
        table, _, _ = build_table(scheme, n=64)
        view = table.stats_view()
        with pytest.raises(ValueError, match="stats_view"):
            view.insert_batch(np.array([999], dtype=np.int64),
                              np.array([0], dtype=np.int64))

    def test_perfect_view_insert_still_allowed(self):
        table = PerfectHashTable(8)
        view = table.stats_view()
        view.insert_batch(np.array([3], dtype=np.int64),
                          np.array([30], dtype=np.int64))
        table.absorb_view(view)
        assert table.size == 1
        found, got = table.lookup_batch(np.array([3], dtype=np.int64))
        assert found.all() and got[0] == 30


class TestPerfectBuildCheck:
    """The perfect build's duplicate check scatters over the batch's key
    span instead of sorting it; what it accepts, rejects and reports must
    be what ``np.unique`` decided."""

    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    def test_rejects_exactly_what_unique_rejects(self, dtype):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(1, 300))
            low = int(rng.integers(0, 2000))
            span = int(rng.choice([n, 2 * n, 50 * n]))
            keys = rng.integers(low, low + span, n).astype(dtype)
            unique, counts = np.unique(keys, return_counts=True)
            table = PerfectHashTable(low + span, dtype, dtype)
            if len(unique) == n:
                table.insert_batch(keys, keys)
                assert table.size == n
                continue
            with pytest.raises(
                ValueError, match=f"duplicate insert for key {unique[counts > 1][0]}$"
            ):
                table.insert_batch(keys, keys)
            assert table.size == 0

    @pytest.mark.parametrize(
        "batch",
        (
            [40, 17, 33, 40],  # within the batch, away from key 0
            [60, 61, 5, 62],  # 5 is already stored
            [63, 64],  # outside the domain
            [9, 41, 9, 41, 9],  # several duplicated keys
        ),
    )
    def test_rejected_batch_leaves_table_bit_identical(self, batch):
        table = PerfectHashTable(64, np.int64, np.int32)
        first = np.array([5, 2, 50, 12], dtype=np.int64)
        table.insert_batch(first, (first * 7).astype(np.int32))
        table.lookup_batch(np.arange(10, dtype=np.int64))
        before_keys = table.keys.copy()
        before_values = table.values.copy()
        before_stats = table.stats.as_tuple()
        keys = np.array(batch, dtype=np.int64)
        with pytest.raises(ValueError):
            table.insert_batch(keys, keys.astype(np.int32))
        assert np.array_equal(table.keys, before_keys)
        assert np.array_equal(table.values, before_values)
        assert table.stats.as_tuple() == before_stats
        assert table.size == 4

    def test_one_worker_build_rejects_a_duplicate_in_a_later_morsel(self):
        table = PerfectHashTable(8)
        keys = np.array([3, 1, 3, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate insert for key 3"):
            execute_build(table, keys, keys, MorselExecutor(1, morsel_tuples=2))

    def test_racing_morsels_are_caught_by_the_occupancy_audit(self):
        # Two morsels carry key 3.  Each batch is duplicate-free, and a
        # barrier after the occupancy gather makes both see slot 3 EMPTY
        # before either writes: only the post-build audit can catch it.
        class GatherBarrier(np.ndarray):
            barrier = threading.Barrier(2, timeout=10)

            def __getitem__(self, index):
                gathered = super().__getitem__(index)
                if isinstance(index, np.ndarray):
                    self.barrier.wait()
                return gathered

        table = PerfectHashTable(8)
        table.keys = table.keys.view(GatherBarrier)
        keys = np.array([3, 1, 3, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="claimed 4 inserts but occupies 3"):
            execute_build(table, keys, keys, MorselExecutor(2, morsel_tuples=2))


def scalar_probe(table, key):
    """One key probed the way the paper states it, in plain Python:
    ``(found, value, slots inspected)`` read straight off the arrays."""
    key = int(key)
    if isinstance(table, PerfectHashTable):
        hit = key < table.capacity and int(table.keys[key]) == key
        return hit, int(table.values[key]) if hit else 0, 1
    if isinstance(table, OpenAddressingHashTable):
        slot = int(bucket_of(np.array([key]), table.capacity)[0])
        for probes in range(1, table.capacity + 1):
            stored = int(table.keys[slot])
            if stored == key:
                return True, int(table.values[slot]), probes
            if stored == table.EMPTY:
                return False, 0, probes
            slot = (slot + 1) % table.capacity
        return False, 0, table.capacity
    row = int(table.heads[int(bucket_of(np.array([key]), table.n_buckets)[0])])
    probes = 1  # the bucket head
    while row != table.NIL:
        probes += 1
        if int(table.keys[row]) == key:
            return True, int(table.values[row]), probes
        row = int(table.next[row])
    return False, 0, probes


def scalar_reference(table, probes):
    """(found, values, TableStats delta) of probing ``probes`` one by one."""
    answers = [scalar_probe(table, key) for key in probes]
    found = np.array([a[0] for a in answers], dtype=bool)
    values = np.array([a[1] for a in answers], dtype=table.values.dtype)
    stats = (0, 0, len(probes), sum(a[2] for a in answers), int(found.sum()))
    return found, values, stats


def lookup_with_stats(table, probes):
    table.stats.reset()
    found, values = table.lookup_batch(probes)
    return found, values, table.stats.as_tuple()


def assert_same_lookup(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype
    assert got[2] == want[2]


class TestProbeBlocks:
    """``lookup_batch`` walks the keys in PROBE_BLOCK-sized slices; where
    a slice ends must never show in the outputs or in ``TableStats``."""

    SMALL_BLOCK = 64

    @staticmethod
    def mixed_probes(n, build_keys, seed):
        """Present, absent and repeated keys in one batch of ``n``."""
        rng = np.random.default_rng(seed)
        present = rng.choice(build_keys, size=n)
        absent = rng.integers(len(build_keys), 4 * len(build_keys), size=n)
        probes = np.where(rng.random(n) < 0.6, present, absent)
        probes[n // 2 :] = probes[: n - n // 2]  # the second half repeats the first
        return probes.astype(build_keys.dtype)

    @pytest.mark.parametrize("key_dtype", (np.int64, np.int32))
    @pytest.mark.parametrize("n", (0, 1, 63, 64, 65, 160))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_block_boundaries_match_scalar_reference(
        self, scheme, n, key_dtype, monkeypatch
    ):
        build_keys = np.random.default_rng(5).permutation(96).astype(key_dtype)
        table = create_hash_table(scheme, 96, key_dtype, key_dtype)
        table.insert_batch(build_keys, build_keys * 7 + 3)
        probes = self.mixed_probes(n, build_keys, seed=n)
        whole = lookup_with_stats(table, probes)
        assert HashTableBase.PROBE_BLOCK > 160  # `whole` was a single block
        monkeypatch.setattr(HashTableBase, "PROBE_BLOCK", self.SMALL_BLOCK)
        blocked = lookup_with_stats(table, probes)
        assert_same_lookup(blocked, scalar_reference(table, probes))
        assert_same_lookup(blocked, whole)

    @pytest.mark.parametrize("n", (1, 64, 65, 160))
    def test_full_open_addressing_table_counts_capacity_probes_per_absent_key(
        self, n, monkeypatch
    ):
        # No slot is EMPTY, so only the `rounds < capacity` bound ends an
        # absent key's probe — in every block, not just the first.
        table = OpenAddressingHashTable(8, load_factor=0.9)
        keys = np.arange(table.capacity, dtype=np.int64)
        table.insert_batch(keys, keys * 2)
        assert table.load_factor == 1.0
        absent = np.arange(n, dtype=np.int64) + table.capacity
        whole = lookup_with_stats(table, absent)
        monkeypatch.setattr(HashTableBase, "PROBE_BLOCK", self.SMALL_BLOCK)
        blocked = lookup_with_stats(table, absent)
        assert not blocked[0].any()
        assert blocked[2] == (0, 0, n, n * table.capacity, 0)
        assert_same_lookup(blocked, scalar_reference(table, absent))
        assert_same_lookup(blocked, whole)

    @pytest.mark.parametrize(
        "scheme, lookup_counters",
        [
            ("perfect", (524288, 524288, 524288)),
            ("open_addressing", (524288, 787016, 524288)),
            ("chaining", (524288, 1308066, 524288)),
        ],
    )
    def test_join_counters_pinned(self, scheme, lookup_counters, monkeypatch):
        # Literals recorded from the whole-batch kernels (the commit
        # before probe blocks): the cost model prices these counters, so
        # a kernel change that moves one moves every virtual result.
        from repro.core.join import nopa
        from repro.hardware.topology import ibm_ac922
        from repro.workloads.builders import workload_a

        tables = []

        def recording_factory(*args):
            tables.append(create_hash_table(*args))
            return tables[-1]

        monkeypatch.setattr(nopa, "create_hash_table", recording_factory)
        workload = workload_a(scale=2**-12, seed=11)
        result = nopa.NoPartitioningJoin(ibm_ac922(), hash_scheme=scheme).run(
            workload.r, workload.s
        )
        (table,) = tables
        stats = table.stats
        assert (stats.lookups, stats.lookup_probes, stats.value_reads) == (
            lookup_counters
        )
        assert result.matches == 524288
        assert result.aggregate == 25788677435
