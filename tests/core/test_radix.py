"""The radix-partitioned CPU baseline (PRA)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bench import fig16_probe_scaling, fig17_build_scaling
from repro.bench.run_all import FIGURES
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.data.relation import Relation
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_ratio, workload_selectivity

SCALE = 2.0**-14


def answer(join, r, s):
    """``(matches, aggregate, skew)`` of one ``RadixJoin.execute``."""
    execution = join.execute(r, s)
    return execution.matches, execution.aggregate, execution.skew


def reference_execute(r, s, bits):
    """The per-partition kernel ``RadixJoin.execute`` replaced: a stable
    radix partition of both sides, then a stable sort and a searchsorted
    per partition pair.  Kept verbatim as the equivalence oracle."""

    def _partition(keys, payloads, bits):
        fanout = 1 << bits
        buckets = (keys.astype(np.int64)) & (fanout - 1)
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        boundaries = np.searchsorted(sorted_buckets, np.arange(fanout + 1))
        return keys[order], payloads[order], boundaries

    r_keys, r_vals, r_bounds = _partition(r.key, r.payload, bits)
    s_keys, _, s_bounds = _partition(s.key, s.payload, bits)
    matches = 0
    aggregate = 0
    fanout = 1 << bits
    largest = 0
    for p in range(fanout):
        rk = r_keys[r_bounds[p] : r_bounds[p + 1]]
        rv = r_vals[r_bounds[p] : r_bounds[p + 1]]
        sk = s_keys[s_bounds[p] : s_bounds[p + 1]]
        largest = max(largest, len(rk) + len(sk))
        if len(rk) == 0 or len(sk) == 0:
            continue
        order = np.argsort(rk, kind="stable")
        rk_sorted = rk[order]
        rv_sorted = rv[order]
        pos = np.searchsorted(rk_sorted, sk)
        pos_clamped = np.minimum(pos, len(rk_sorted) - 1)
        hit = rk_sorted[pos_clamped] == sk
        matches += int(hit.sum())
        aggregate += int(rv_sorted[pos_clamped[hit]].astype(np.int64).sum())
    total = r.executed_tuples + s.executed_tuples
    avg = total / fanout if fanout else 0
    skew = largest / avg if avg else 0.0
    return matches, aggregate, skew


def random_relations(rng, dtype, n_r, n_s, key_range):
    """R and S over ``key_range``: R draws with replacement, so it holds
    duplicate keys, and S draws keys R lacks."""
    low, high = key_range

    def relation(name, n):
        keys = rng.integers(low, high, n).astype(dtype)
        payload = rng.integers(-(2**20), 2**20, n).astype(dtype)
        return Relation(name, keys, payload)

    return relation("R", n_r), relation("S", n_s)


class TestExecuteEquivalence:
    """``execute`` (one sort of rotated keys) equals the per-partition
    loop it replaced, bit for bit, on every executed fan-out."""

    SHAPES = (
        # (|R|, |S|, key range)
        (300, 2000, (0, 400)),  # duplicate and absent R keys
        (2000, 300, (0, 100_000)),  # sparse keys, most probes miss
        (1, 50, (0, 4)),
        (0, 100, (0, 50)),  # empty R
        (100, 0, (0, 50)),  # empty S
        (0, 0, (0, 1)),
        (500, 500, (-300, 300)),  # negative keys
        (257, 1031, (2**31 - 600, 2**31 - 1)),  # keys near the int32 limit
    )

    @pytest.mark.parametrize("dtype", (np.int32, np.int64))
    @pytest.mark.parametrize("bits", range(9))
    def test_matches_the_per_partition_loop(self, ibm, dtype, bits):
        rng = np.random.default_rng(1000 + bits)
        join = RadixJoin(ibm, executed_radix_bits=bits)
        for n_r, n_s, key_range in self.SHAPES:
            r, s = random_relations(rng, dtype, n_r, n_s, key_range)
            assert answer(join, r, s) == reference_execute(r, s, bits), (
                n_r, n_s, key_range,
            )

    def test_wide_int64_keys(self, ibm):
        rng = np.random.default_rng(7)
        r, s = random_relations(rng, np.int64, 700, 1500, (-(2**62), 2**62))
        s = Relation("S", np.concatenate([s.key, r.key[::3]]),
                     np.concatenate([s.payload, r.payload[::3]]))
        for bits in (0, 5, 8):
            join = RadixJoin(ibm, executed_radix_bits=bits)
            assert answer(join, r, s) == reference_execute(r, s, bits)

    def test_duplicate_build_key_matches_its_first_copy(self, ibm):
        r = Relation("R", np.array([9, 4, 9, 9], dtype=np.int64),
                     np.array([1, 2, 30, 400], dtype=np.int64))
        s = Relation("S", np.array([9, 9, 5], dtype=np.int64),
                     np.array([0, 0, 0], dtype=np.int64))
        for bits in range(9):
            execution = RadixJoin(ibm, executed_radix_bits=bits).execute(r, s)
            assert (execution.matches, execution.aggregate) == (2, 2)


def sorted_probe_execute(r, s, bits):
    """The one-stable-sort kernel ``RadixJoin.execute`` replaced: every
    sorted S tuple is searched in R's stably sorted rotated keys.  Kept
    verbatim but for its comments (it shares only the unchanged key
    rotation) as the equivalence oracle."""
    fanout = 1 << bits
    r_keys = RadixJoin._partition_major(r.key, bits)
    order = np.argsort(r_keys, kind="stable")
    r_keys = r_keys[order]
    s_keys = np.sort(RadixJoin._partition_major(s.key, bits))
    matches = 0
    aggregate = 0
    if len(r_keys) and len(s_keys):
        pos = np.searchsorted(r_keys, s_keys)
        np.minimum(pos, len(r_keys) - 1, out=pos)
        hit = r_keys.take(pos) == s_keys
        matches = int(np.count_nonzero(hit))
        aggregate = int(
            r.payload.take(order).take(pos).sum(where=hit, dtype=np.int64)
        )
    sizes = np.bincount(r.key & (fanout - 1), minlength=fanout)
    sizes += np.bincount(s.key & (fanout - 1), minlength=fanout)
    avg = (r.executed_tuples + s.executed_tuples) / fanout
    skew = int(sizes.max()) / avg if avg else 0.0
    return matches, aggregate, skew


#: Payloads near ±2**62: a handful of matches wraps the int64 aggregate.
WIDE_PAYLOADS = st.one_of(
    st.integers(-(2**20), 2**20),
    st.integers(2**62 - 2**20, 2**63 - 1),
    st.integers(-(2**63), -(2**62) + 2**20),
)


@st.composite
def relation_pairs(draw):
    """R and S over one small key window, so both sides hold duplicates
    and keys the other lacks; either side may be empty."""
    dtype = draw(st.sampled_from((np.int32, np.int64)))
    info = np.iinfo(dtype)
    low = draw(st.sampled_from((-40, 0, info.max - 40, info.min)))
    keys = st.integers(low, low + 40)
    payloads = (
        WIDE_PAYLOADS if dtype is np.int64 else st.integers(info.min, info.max)
    )

    def relation(name):
        n = draw(st.integers(0, 60))
        return Relation(
            name,
            draw(arrays(dtype, n, elements=keys)),
            draw(arrays(dtype, n, elements=payloads)),
        )

    return relation("R"), relation("S")


MACHINE = ibm_ac922()


@settings(max_examples=100, deadline=None)
@given(relations=relation_pairs(), bits=st.integers(0, 8))
def test_execute_equals_sorted_probe_kernel(relations, bits):
    r, s = relations
    join = RadixJoin(MACHINE, executed_radix_bits=bits)
    assert answer(join, r, s) == sorted_probe_execute(r, s, bits)


class TestFigureCellsUnchanged:
    """Literals recorded from the per-partition kernel."""

    def test_fig16_8to1_execution(self, ibm):
        wl = workload_ratio(8, scale=2.0**-13, modeled_r=1024 * 10**6)
        res = RadixJoin(ibm).run(wl.r, wl.s)
        assert (res.matches, res.aggregate, res.max_partition_skew) == (
            1000000, 187549632619, 1.0346951111111111,
        )

    def test_fig17_2048m_execution(self, ibm):
        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        res = RadixJoin(ibm).run(wl.r, wl.s)
        assert (res.matches, res.aggregate, res.max_partition_skew) == (
            250000, 93881128480, 1.04704,
        )

    def test_cpu_pra_cells(self, registry_result):
        cells = {}
        for index, figure in enumerate(FIGURES):
            if figure.runner in (fig16_probe_scaling.run, fig17_build_scaling.run):
                result = registry_result(index)
                for row in result.rows:
                    cells[(result.figure, row.label)] = row.values["cpu-pra"]
        expected = {key: 0.4553649829796006 for key in cells}
        expected[("Figure 17", "1792M")] = 0.45536498297960065
        assert len(cells) == 15
        assert cells == expected


class TestFunctional:
    def test_matches_agree_with_nopa(self, ibm, wl_a):
        radix = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        nopa = NoPartitioningJoin(ibm, hash_table_placement="cpu").run(
            wl_a.r, wl_a.s, processor="cpu0"
        )
        assert radix.matches == nopa.matches
        assert radix.aggregate == nopa.aggregate

    def test_partial_selectivity(self, ibm):
        wl = workload_selectivity(0.3, scale=SCALE)
        res = RadixJoin(ibm).run(wl.r, wl.s)
        assert res.matches / wl.s.executed_tuples == pytest.approx(0.3, abs=0.03)

    def test_partition_count_from_radix_bits(self, ibm, wl_a):
        res = RadixJoin(ibm, radix_bits=12).run(wl_a.r, wl_a.s)
        assert res.partitions == 4096

    def test_partitions_balanced_for_uniform_keys(self, ibm, wl_a):
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert res.max_partition_skew < 2.0


class TestModel:
    def test_runs_on_cpu_only(self, ibm, wl_a):
        with pytest.raises(ValueError):
            RadixJoin(ibm).run(wl_a.r, wl_a.s, processor="gpu0")

    def test_partition_pass_dominates(self, ibm, wl_a):
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert res.partition_cost.seconds > res.join_cost.seconds

    def test_throughput_near_half_gtps(self, ibm, wl_a):
        # Figures 16/17: the tuned PRA baseline sits around 0.4-0.5.
        res = RadixJoin(ibm).run(wl_a.r, wl_a.s)
        assert 0.35 < res.throughput_gtuples < 0.6

    def test_throughput_flat_across_sizes(self, ibm):
        small = workload_ratio(1, scale=2.0**-12, modeled_r=256 * 10**6)
        large = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        t_small = RadixJoin(ibm).run(small.r, small.s).throughput_gtuples
        t_large = RadixJoin(ibm).run(large.r, large.s).throughput_gtuples
        assert t_small == pytest.approx(t_large, rel=0.1)

    def test_radix_bits_validation(self, ibm):
        with pytest.raises(ValueError):
            RadixJoin(ibm, radix_bits=0)

    @pytest.mark.parametrize(
        "radix_bits, executed", ((12, -1), (12, 40), (12, 13), (4, 5))
    )
    def test_executed_radix_bits_validation(self, ibm, radix_bits, executed):
        # Regression: -1 died in the kernel on a negative shift count and
        # 40 tried to allocate 2**40 partition boundaries.
        with pytest.raises(ValueError, match=f"executed radix bits.*{executed}"):
            RadixJoin(ibm, radix_bits=radix_bits, executed_radix_bits=executed)

    @pytest.mark.parametrize("radix_bits, executed", ((12, 0), (12, 12), (4, 4)))
    def test_executed_radix_bits_bounds_accepted(self, ibm, wl_a, radix_bits, executed):
        join = RadixJoin(ibm, radix_bits=radix_bits, executed_radix_bits=executed)
        assert join.executed_radix_bits == executed
        assert join.run(wl_a.r, wl_a.s).matches == wl_a.s.executed_tuples

    def test_xeon_slower_than_power9(self, ibm, intel, wl_a):
        p9 = RadixJoin(ibm).run(wl_a.r, wl_a.s).throughput_gtuples
        xeon = RadixJoin(intel).run(wl_a.r, wl_a.s).throughput_gtuples
        assert p9 > xeon
