"""The eight transfer methods of Table 1."""

import pytest

from repro.bench.table01_methods import PAPER
from repro.costmodel.model import CostModel
from repro.hardware.memory import MemoryKind
from repro.plan import ingest
from repro.transfer.methods import (
    TRANSFER_METHODS,
    UnsupportedTransferError,
    get_method,
)
from repro.utils.units import GIB


@pytest.fixture
def cm(ibm):
    return CostModel(ibm)


@pytest.fixture
def cm_intel(intel):
    return CostModel(intel)


class TestRegistry:
    def test_all_eight_methods_present(self):
        assert set(TRANSFER_METHODS) == {
            "pageable_copy",
            "staged_copy",
            "dynamic_pinning",
            "pinned_copy",
            "um_prefetch",
            "um_migration",
            "zero_copy",
            "coherence",
        }

    def test_get_method_unknown_raises_with_hint(self):
        with pytest.raises(UnsupportedTransferError, match="coherence"):
            get_method("warp_drive")

    def test_table1_semantics(self):
        push = {"pageable_copy", "staged_copy", "dynamic_pinning",
                "pinned_copy", "um_prefetch"}
        for name, method in TRANSFER_METHODS.items():
            expected = "push" if name in push else "pull"
            assert method.semantics == expected, name

    def test_table1_memory_kinds(self):
        assert get_method("zero_copy").required_kind is MemoryKind.PINNED
        assert get_method("pinned_copy").required_kind is MemoryKind.PINNED
        assert get_method("um_migration").required_kind is MemoryKind.UNIFIED
        assert get_method("um_prefetch").required_kind is MemoryKind.UNIFIED
        assert get_method("coherence").required_kind is MemoryKind.PAGEABLE
        assert get_method("pageable_copy").required_kind is MemoryKind.PAGEABLE

    def test_levels(self):
        assert get_method("coherence").level == "HW"
        assert get_method("zero_copy").level == "HW"
        assert get_method("um_migration").level == "OS"
        assert get_method("pinned_copy").level == "SW"


class TestSupport:
    def test_coherence_supported_on_nvlink(self, ibm):
        assert get_method("coherence").supported(ibm, "gpu0", "cpu0-mem")

    def test_coherence_unsupported_on_pcie(self, intel):
        method = get_method("coherence")
        assert not method.supported(intel, "gpu0", "cpu0-mem")
        with pytest.raises(UnsupportedTransferError):
            method.check_supported(intel, "gpu0", "cpu0-mem")

    def test_coherence_multi_hop_still_coherent(self, ibm):
        # gpu0 -> cpu1-mem crosses NVLink and X-Bus, both coherent.
        assert get_method("coherence").supported(ibm, "gpu0", "cpu1-mem")


class TestIngestBandwidth:
    def test_pull_methods_reach_link_bandwidth(self, cm):
        for name in ("coherence", "zero_copy"):
            bw = get_method(name).ingest_bandwidth(cm, "gpu0", "cpu0-mem")
            assert bw == 63 * GIB

    def test_pinned_copy_pays_dma_overhead(self, cm):
        bw = get_method("pinned_copy").ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        assert 0.9 * 63 * GIB < bw < 63 * GIB

    def test_staged_copy_bound_by_staging(self, cm):
        bw = get_method("staged_copy").ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        assert bw == cm.calibration.staging_bandwidth

    def test_staged_copy_on_pcie_bound_by_link(self, cm_intel):
        bw = get_method("staged_copy").ingest_bandwidth(cm_intel, "gpu0", "cpu0-mem")
        assert bw < cm_intel.calibration.staging_bandwidth

    def test_dynamic_pinning_page_size_matters(self, cm, cm_intel):
        # POWER9's 64 KiB pages amortize pinning 16x better than Intel's
        # 4 KiB pages (Figure 12: 2.36 vs 0.26 G Tuples/s).
        method = get_method("dynamic_pinning")
        ibm_bw = method.ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        intel_bw = method.ingest_bandwidth(cm_intel, "gpu0", "cpu0-mem")
        assert ibm_bw > 5 * intel_bw

    def test_um_migration_fault_bound(self, cm):
        bw = get_method("um_migration").ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        assert bw < 4 * GIB  # the POWER9 driver footnote

    def test_um_prefetch_platform_difference(self, cm, cm_intel):
        method = get_method("um_prefetch")
        ibm_bw = method.ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        intel_bw = method.ingest_bandwidth(cm_intel, "gpu0", "cpu0-mem")
        assert intel_bw > ibm_bw  # despite the slower link!

    def test_pageable_copy_mmio_bound(self, cm):
        bw = get_method("pageable_copy").ingest_bandwidth(cm, "gpu0", "cpu0-mem")
        assert bw == cm.calibration.mmio_bandwidth["nvlink2"]

    def test_local_memory_rejected(self, cm):
        with pytest.raises(UnsupportedTransferError):
            get_method("coherence").ingest_bandwidth(cm, "gpu0", "gpu0-mem")


class TestSideEffects:
    def test_staged_copy_doubles_cpu_memory_traffic(self, ibm):
        streams = get_method("staged_copy").side_streams(
            ibm, "gpu0", "cpu0-mem", 100
        )
        assert len(streams) == 1
        assert streams[0].total_bytes == 200
        assert streams[0].processor == "cpu0"

    def test_pageable_copy_uses_cpu_thread(self, ibm):
        streams = get_method("pageable_copy").side_streams(
            ibm, "gpu0", "cpu0-mem", 100
        )
        assert streams and streams[0].processor == "cpu0"

    def test_pull_methods_have_no_side_traffic(self, ibm):
        for name in ("coherence", "zero_copy", "um_migration"):
            assert get_method(name).side_streams(ibm, "gpu0", "cpu0-mem", 1) == []

    def test_landing_semantics(self):
        assert get_method("pinned_copy").lands_in_gpu_memory()
        assert get_method("um_migration").lands_in_gpu_memory()  # pages move
        assert not get_method("zero_copy").lands_in_gpu_memory()
        assert not get_method("coherence").lands_in_gpu_memory()

    def test_ingest_chunks_exactly_the_push_methods(self, cm):
        """Push methods overlap transfer and compute through the chunked
        pipeline the executor applies; pull methods read inside the
        kernel and get none (Table 1's semantics column)."""
        for name, (semantics, *_rest) in PAPER.items():
            spec = ingest(
                cm,
                name,
                "gpu0",
                "cpu0-mem",
                GIB,
                "read",
                kind=get_method(name).required_kind,
            )
            assert (spec.chunked is not None) == (semantics == "push"), name


class TestKindEnforcement:
    """Table 1 requires each method's source memory kind; regression:
    `required_kind` used to be advisory and never enforced."""

    def test_supported_kinds_mirror_required_kind(self):
        for method in TRANSFER_METHODS.values():
            assert method.supported_kinds() == frozenset(
                {method.required_kind}
            )

    def test_matching_kind_accepted(self, ibm):
        get_method("zero_copy").check_supported(
            ibm, "gpu0", "cpu0-mem", kind=MemoryKind.PINNED
        )
        get_method("coherence").check_supported(
            ibm, "gpu0", "cpu0-mem", kind=MemoryKind.PAGEABLE
        )

    def test_mismatched_kind_rejected(self, ibm):
        with pytest.raises(UnsupportedTransferError, match="pinned"):
            get_method("zero_copy").check_supported(
                ibm, "gpu0", "cpu0-mem", kind=MemoryKind.PAGEABLE
            )
        with pytest.raises(UnsupportedTransferError, match="unified"):
            get_method("um_migration").check_supported(
                ibm, "gpu0", "cpu0-mem", kind=MemoryKind.PAGEABLE
            )

    def test_error_names_method_and_fix(self, ibm):
        with pytest.raises(UnsupportedTransferError, match="reallocate"):
            get_method("pinned_copy").check_supported(
                ibm, "gpu0", "cpu0-mem", kind=MemoryKind.UNIFIED
            )

    def test_kind_none_skips_the_check(self, ibm):
        # Route-only validation (no allocation in hand) stays lenient.
        get_method("zero_copy").check_supported(ibm, "gpu0", "cpu0-mem")

    def test_join_rejects_wrong_allocation(self, ibm, wl_a):
        from repro.core.join.nopa import NoPartitioningJoin

        join = NoPartitioningJoin(ibm, transfer_method="zero_copy")
        with pytest.raises(UnsupportedTransferError, match="pageable"):
            join.run(wl_a.r, wl_a.s, processor="gpu0")  # default pageable

    def test_placed_for_reallocates_workload(self, ibm, wl_a):
        from repro.core.join.nopa import NoPartitioningJoin

        pinned = wl_a.placed_for("zero_copy")
        assert pinned.r.kind is MemoryKind.PINNED
        assert pinned.s.kind is MemoryKind.PINNED
        result = NoPartitioningJoin(ibm, transfer_method="zero_copy").run(
            pinned.r, pinned.s, processor="gpu0"
        )
        assert result.matches == wl_a.s.executed_tuples
