"""Workload generators (Table 2 and variants)."""

import numpy as np
import pytest

from repro.workloads.builders import (
    CARDINALITY_A_R,
    CARDINALITY_A_S,
    CARDINALITY_B_R,
    CARDINALITY_C,
    workload_a,
    workload_b,
    workload_c,
    workload_ratio,
    workload_selectivity,
    workload_skewed,
)

SCALE = 2.0**-13


class TestTable2:
    def test_workload_a_cardinalities(self):
        wl = workload_a(scale=SCALE)
        assert wl.r.modeled_tuples == CARDINALITY_A_R == 2**27
        assert wl.s.modeled_tuples == CARDINALITY_A_S == 2**31

    def test_workload_a_sizes(self):
        wl = workload_a(scale=SCALE)
        assert wl.r.modeled_bytes == 2 * 2**30  # 2 GiB
        assert wl.s.modeled_bytes == 32 * 2**30  # 32 GiB
        for relation in (wl.r, wl.s):  # Table 2: 8/8-byte key/payload
            assert relation.key_bytes == relation.payload_bytes == 8

    def test_workload_b_r_is_cache_sized(self):
        wl = workload_b(scale=SCALE)
        assert wl.r.modeled_tuples == CARDINALITY_B_R
        assert wl.r.modeled_bytes == 4 * 2**20  # 4 MiB

    def test_workload_b_r_not_shrunk_by_size_scale(self):
        wl = workload_b(scale=SCALE, size_scale=0.5)
        assert wl.r.modeled_tuples == CARDINALITY_B_R
        assert wl.s.modeled_tuples == 2**30

    def test_workload_c_equal_cardinalities(self):
        wl = workload_c(scale=SCALE)
        assert wl.r.modeled_tuples == wl.s.modeled_tuples == CARDINALITY_C

    def test_workload_c_tuple_widths(self):
        wl = workload_c(scale=SCALE)
        assert wl.r.tuple_bytes == 8  # Table 2: 4/4
        for relation in (wl.r, wl.s):
            assert relation.key_bytes == relation.payload_bytes == 4
        assert workload_c(scale=SCALE, tuple_bytes=16).r.tuple_bytes == 16

    def test_workload_c_rejects_other_widths(self):
        with pytest.raises(ValueError):
            workload_c(scale=SCALE, tuple_bytes=12)


class TestGenerationInvariants:
    def test_r_keys_are_unique_dense_permutation(self):
        for builder in (workload_a, workload_b, workload_c):
            wl = builder(scale=SCALE)
            keys = np.sort(wl.r.key)
            assert np.array_equal(keys, np.arange(wl.r.executed_tuples)), builder

    def test_every_s_tuple_has_exactly_one_match(self):
        for builder in (workload_a, workload_b, workload_c):
            wl = builder(scale=SCALE)
            assert wl.s.executed_tuples > 0
            assert np.isin(wl.s.key, wl.r.key).all(), builder

    def test_payload_encodes_key(self):
        wl = workload_a(scale=SCALE)
        assert np.array_equal(
            wl.r.payload, wl.r.key.astype(np.int64) * 3 + 1
        )

    def test_deterministic_per_seed(self):
        a1 = workload_a(scale=SCALE, seed=7)
        a2 = workload_a(scale=SCALE, seed=7)
        a3 = workload_a(scale=SCALE, seed=8)
        assert np.array_equal(a1.s.key, a2.s.key)
        assert not np.array_equal(a1.s.key, a3.s.key)

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            workload_a(scale=0.0)
        with pytest.raises(ValueError):
            workload_a(scale=1.5)


class TestSelectivity:
    def test_match_rate_tracks_selectivity(self):
        for sel in (0.0, 0.3, 1.0):
            wl = workload_selectivity(sel, scale=SCALE)
            rate = np.isin(wl.s.key, wl.r.key).mean()
            assert rate == pytest.approx(sel, abs=0.02)

    def test_r_cardinality_constant_across_selectivities(self):
        low = workload_selectivity(0.1, scale=SCALE)
        high = workload_selectivity(0.9, scale=SCALE)
        assert low.r.executed_tuples == high.r.executed_tuples

    def test_invalid_selectivity_rejected(self):
        with pytest.raises(ValueError):
            workload_selectivity(1.5, scale=SCALE)


class TestSkew:
    def test_zipf_concentrates_on_hot_keys(self):
        wl = workload_skewed(1.5, scale=SCALE)
        _, counts = np.unique(wl.s.key, return_counts=True)
        top = np.sort(counts)[::-1][:1000].sum() / wl.s.executed_tuples
        assert top > 0.8  # paper: 97.5% at full scale

    def test_zero_exponent_is_roughly_uniform(self):
        wl = workload_skewed(0.0, scale=SCALE)
        _, counts = np.unique(wl.s.key, return_counts=True)
        assert counts.max() / counts.mean() < 5

    def test_hot_set_profile_exposed(self):
        assert workload_skewed(1.0, scale=SCALE).hot_set_profile() is not None
        assert workload_a(scale=SCALE).hot_set_profile() is None

    def test_skewed_keys_still_match(self):
        wl = workload_skewed(1.5, scale=SCALE)
        assert np.isin(wl.s.key, wl.r.key).all()


class TestRatio:
    def test_ratio_shapes(self):
        wl = workload_ratio(8, scale=SCALE)
        assert wl.s.modeled_tuples == 8 * wl.r.modeled_tuples

    def test_ratio_one(self):
        wl = workload_ratio(1, scale=SCALE)
        assert wl.s.modeled_tuples == wl.r.modeled_tuples

    def test_ratio_tuples_are_16_bytes(self):
        assert workload_ratio(2, scale=SCALE).r.tuple_bytes == 16

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            workload_ratio(0, scale=SCALE)

    def test_totals(self):
        wl = workload_ratio(4, scale=SCALE)
        assert wl.r.modeled_tuples + wl.s.modeled_tuples == 5 * wl.r.modeled_tuples
        assert wl.r.modeled_bytes + wl.s.modeled_bytes == 5 * wl.r.modeled_bytes
