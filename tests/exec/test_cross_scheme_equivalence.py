"""Cross-scheme agreement (hypothesis).

For any unique-key workload, all three schemes agree on
``(found, values)`` exactly: the hash scheme is a performance choice,
never a semantic one.
"""

import numpy as np
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
            # values agree where found; miss slots are scheme-internal
            assert np.array_equal(values[found], ref_values[ref_found]), scheme
