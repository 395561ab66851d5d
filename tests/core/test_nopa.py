"""The no-partitioning hash join operator."""

import numpy as np
import pytest

from repro.core.join.nopa import NoPartitioningJoin, payload_line_fraction
from repro.memory.allocator import OutOfMemoryError
from repro.utils.units import LINE_BYTES
from repro.workloads.builders import workload_a, workload_selectivity

SCALE = 2.0**-14


class TestFunctionalCorrectness:
    def test_all_s_tuples_match(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        res = join.run(wl_a.r, wl_a.s)
        assert res.matches == wl_a.s.executed_tuples

    def test_aggregate_is_sum_of_matched_r_payloads(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        res = join.run(wl_a.r, wl_a.s)
        # payload = key * 3 + 1, S keys index the dense domain directly.
        expected = int((wl_a.s.key.astype(np.int64) * 3 + 1).sum())
        assert res.aggregate == expected

    def test_selectivity_controls_matches(self, ibm):
        wl = workload_selectivity(0.4, scale=SCALE)
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        res = join.run(wl.r, wl.s)
        assert res.matches / wl.s.executed_tuples == pytest.approx(0.4, abs=0.03)

    @pytest.mark.parametrize("scheme", ["perfect", "open_addressing", "chaining"])
    def test_all_hash_schemes_agree(self, ibm, wl_a, scheme):
        join = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", hash_scheme=scheme
        )
        res = join.run(wl_a.r, wl_a.s)
        assert res.matches == wl_a.s.executed_tuples


class TestPayloadLineFraction:
    def test_all_matches_loads_everything(self):
        mask = np.ones(1024, dtype=bool)
        assert payload_line_fraction(mask, 8) == 1.0

    def test_no_matches_loads_nothing(self):
        mask = np.zeros(1024, dtype=bool)
        assert payload_line_fraction(mask, 8) == 0.0

    def test_one_match_loads_one_line(self):
        per_line = LINE_BYTES // 8  # 16 values per line
        mask = np.zeros(16 * per_line, dtype=bool)
        mask[0] = True
        assert payload_line_fraction(mask, 8) == pytest.approx(1 / 16)

    def test_paper_anchor_81_5_percent(self):
        # Uniform 10% matches over 16-value lines: 1 - 0.9^16 = 81.5%.
        rng = np.random.default_rng(0)
        mask = rng.random(1 << 20) < 0.1
        assert payload_line_fraction(mask, 8) == pytest.approx(0.815, abs=0.01)

    def test_tail_line_counted(self):
        mask = np.zeros(20, dtype=bool)
        mask[-1] = True  # in the partial tail line
        fraction = payload_line_fraction(mask, 8)
        assert 0 < fraction < 1

    def test_empty_mask(self):
        assert payload_line_fraction(np.zeros(0, dtype=bool), 8) == 0.0


class TestPlacementResolution:
    def test_gpu_placement(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert res.placement.fractions == {"gpu0-mem": 1.0}

    def test_cpu_processor_forces_local_table(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s, processor="cpu0"
        )
        assert res.placement.fractions == {"cpu0-mem": 1.0}

    def test_oversized_gpu_placement_raises(self, ibm):
        from repro.workloads.builders import workload_ratio

        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        with pytest.raises(OutOfMemoryError):
            join.run(wl.r, wl.s)

    def test_explicit_fraction_override(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        res = join.run(
            wl_a.r,
            wl_a.s,
            placement_fractions={"gpu0-mem": 0.3, "cpu0-mem": 0.7},
        )
        assert res.placement.fraction("gpu0-mem") == pytest.approx(0.3)

    def test_layout_validation(self, ibm):
        with pytest.raises(ValueError):
            NoPartitioningJoin(ibm, layout="csr")


class TestPerformanceModel:
    def test_probe_seq_bound_over_nvlink(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert res.probe_cost.bottleneck.startswith("link:nvlink2")

    def test_build_atomic_bound_in_gpu_memory(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert res.build_cost.bottleneck == "mem:gpu0-mem"

    def test_throughput_metric_definition(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert res.modeled_tuples == wl_a.r.modeled_tuples + wl_a.s.modeled_tuples
        assert res.throughput_tuples == pytest.approx(
            res.modeled_tuples / res.runtime
        )

    def test_cpu_table_much_slower_than_gpu_table(self, ibm, wl_a):
        gpu = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        cpu = NoPartitioningJoin(ibm, hash_table_placement="cpu").run(
            wl_a.r, wl_a.s
        )
        assert gpu.throughput_gtuples / cpu.throughput_gtuples > 4

    def test_hybrid_between_gpu_and_cpu(self, ibm):
        from repro.workloads.builders import workload_ratio

        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        hybrid = NoPartitioningJoin(ibm, hash_table_placement="hybrid").run(
            wl.r, wl.s
        )
        spill = NoPartitioningJoin(ibm, hash_table_placement="cpu").run(
            wl.r, wl.s
        )
        assert hybrid.throughput_gtuples > spill.throughput_gtuples
        assert 0 < hybrid.placement.gpu_fraction(ibm) < 1

    def test_build_fraction_in_range(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert 0 < res.build_fraction < 1

    def test_str(self, ibm, wl_a):
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert "G Tuples/s" in str(res)


class TestTransferMethodInteraction:
    def test_coherence_rejected_on_pcie(self, intel, wl_a):
        from repro.transfer.methods import UnsupportedTransferError

        join = NoPartitioningJoin(
            intel, hash_table_placement="gpu", transfer_method="coherence"
        )
        with pytest.raises(UnsupportedTransferError):
            join.run(wl_a.r, wl_a.s)

    def test_push_method_slower_than_coherence(self, ibm, wl_a):
        coherence = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", transfer_method="coherence"
        ).run(wl_a.r, wl_a.s)
        staged = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", transfer_method="staged_copy"
        ).run(wl_a.r, wl_a.s)
        assert coherence.throughput_gtuples > staged.throughput_gtuples

    def test_gpu_local_data_ignores_transfer_method(self, ibm, wl_a):
        r = wl_a.r.placed("gpu0-mem")
        s = wl_a.s.placed("gpu0-mem")
        a = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", transfer_method="coherence"
        ).run(r, s)
        b = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", transfer_method="um_migration"
        ).run(r, s)
        assert a.runtime == pytest.approx(b.runtime)


class TestPlacementFractionValidation:
    """`run(placement_fractions=...)` regression: invalid dicts used to
    be priced as given, splitting traffic onto nonexistent regions."""

    def test_unknown_region_rejected_with_hint(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        with pytest.raises(ValueError, match="warp-mem"):
            join.run(
                wl_a.r, wl_a.s,
                placement_fractions={"warp-mem": 1.0},
            )

    def test_error_lists_valid_regions(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        with pytest.raises(ValueError, match="gpu0-mem"):
            join.run(wl_a.r, wl_a.s, placement_fractions={"nope": 1.0})

    def test_fractions_not_summing_to_one_rejected(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        with pytest.raises(ValueError):
            join.run(
                wl_a.r, wl_a.s,
                placement_fractions={"gpu0-mem": 0.5, "cpu0-mem": 0.1},
            )

    def test_negative_fraction_rejected(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        with pytest.raises(ValueError):
            join.run(
                wl_a.r, wl_a.s,
                placement_fractions={"gpu0-mem": 1.5, "cpu0-mem": -0.5},
            )

    def test_valid_split_still_works(self, ibm, wl_a):
        join = NoPartitioningJoin(ibm)
        result = join.run(
            wl_a.r, wl_a.s,
            placement_fractions={"gpu0-mem": 0.5, "cpu0-mem": 0.5},
        )
        assert result.placement.is_hybrid
        assert result.matches == wl_a.s.executed_tuples
