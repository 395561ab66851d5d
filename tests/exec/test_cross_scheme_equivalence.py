"""Cross-scheme agreement (hypothesis).

For any unique-key workload, all three schemes agree on
``(found, values)`` exactly: the hash scheme is a performance choice,
never a semantic one.  That includes keys wider than the table's key
dtype and keys that are not integers at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable import create_hash_table
from repro.exec import execute_build, execute_probe

SCHEMES = ("perfect", "open_addressing", "chaining")
DOMAIN = 600


def build_and_probe(scheme, keys, probes):
    table = create_hash_table(
        scheme, max(len(keys), DOMAIN), np.int64, np.int64
    )
    if len(keys):
        execute_build(table, keys, keys * 7 + 3)
    return execute_probe(table, probes)


class TestCrossSchemeAgreement:
    @given(
        keys=st.sets(st.integers(0, DOMAIN - 1), max_size=150),
        probes=st.lists(st.integers(0, DOMAIN + 99), max_size=150),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_schemes_agree(self, keys, probes):
        keys = np.array(sorted(keys), dtype=np.int64)
        probes = np.array(probes, dtype=np.int64)
        ref_found, ref_values = build_and_probe("perfect", keys, probes)
        for scheme in SCHEMES[1:]:
            found, values = build_and_probe(scheme, keys, probes)
            assert np.array_equal(found, ref_found), scheme
            # the stored value where found, zero at a miss — on every scheme
            assert np.array_equal(values, ref_values), scheme


def small_int32_table(scheme):
    table = create_hash_table(scheme, 8, np.int32, np.int32)
    keys = np.arange(8, dtype=np.int32)
    table.insert_batch(keys, keys * 10)
    return table


def table_state(table):
    return (
        table.keys.tobytes(),
        table.values.tobytes(),
        table.size,
        table.stats.as_tuple(),
    )


@pytest.mark.parametrize("scheme", SCHEMES)
class TestKeysAreNeverNarrowed:
    """Regression: keys used to be cast to the table's key dtype before
    they were hashed and compared, so ``2**32 + 1`` aliased key 1 in an
    int32 table and ``7.9`` aliased key 7 — on some schemes only."""

    def test_probe_key_beyond_the_table_dtype_is_absent(self, scheme):
        table = small_int32_table(scheme)
        table.stats.reset()
        found, values = table.lookup_batch(np.array([2**32 + 1, 3]))
        assert found.tolist() == [False, True]
        assert values.tolist() == [0, 30]
        assert values.dtype == np.int32
        # counted like any other miss
        assert table.stats.lookups == 2
        assert table.stats.value_reads == 1
        assert table.stats.lookup_probes >= 2

    @pytest.mark.parametrize(
        "probes",
        [np.array([1.5, 2.0, 7.9]), np.array([True, False])],
        ids=["float64", "bool"],
    )
    def test_non_integer_keys_are_a_type_error(self, scheme, probes):
        table = small_int32_table(scheme)
        before = table_state(table)
        with pytest.raises(TypeError, match=str(probes.dtype)):
            table.lookup_batch(probes)
        with pytest.raises(TypeError, match=str(probes.dtype)):
            table.insert_batch(probes, np.zeros(len(probes), dtype=np.int32))
        assert table_state(table) == before

    def test_insert_key_beyond_the_table_dtype_is_rejected(self, scheme):
        # 8 of 16 slots used, so only the key width can reject this batch
        table = create_hash_table(scheme, 16, np.int32, np.int32)
        keys = np.arange(8, dtype=np.int32)
        table.insert_batch(keys, keys * 10)
        before = table_state(table)
        with pytest.raises(ValueError, match=str(2**32 + 9)):
            table.insert_batch(np.array([2**32 + 9, 11]), np.array([1, 2]))
        assert table_state(table) == before
        # nothing was stored under the narrowed alias, and nothing lost
        found, values = table.lookup_batch(np.array([9, 2**32 + 9, 11, 3]))
        assert found.tolist() == [False, False, False, True]
        assert values.tolist() == [0, 0, 0, 30]
