"""Cost-model semantics: routing, occupancy, bottlenecks, caches."""

import pytest

from repro.costmodel.access import (
    AccessProfile,
    atomic_stream,
    random_stream,
    seq_stream,
)
from repro.costmodel.model import CostModel
from repro.hardware.cache import HotSetProfile
from repro.hardware.specs import NVLINK2
from repro.utils.units import GIB


@pytest.fixture
def cm(ibm):
    return CostModel(ibm)


@pytest.fixture
def cm_intel(intel):
    return CostModel(intel)


class TestPrimitives:
    def test_sequential_bandwidth_local(self, cm):
        assert cm.sequential_bandwidth("cpu0", "cpu0-mem") == 117 * GIB

    def test_sequential_bandwidth_over_nvlink(self, cm):
        assert cm.sequential_bandwidth("gpu0", "cpu0-mem") == 63 * GIB

    def test_sequential_bandwidth_min_over_path(self, cm):
        # gpu0 -> cpu1-mem crosses NVLink (63) and X-Bus (31).
        assert cm.sequential_bandwidth("gpu0", "cpu1-mem") == 31 * GIB

    def test_one_hop_nvlink_bandwidth(self, cm, ibm):
        # Each GPU's one hop to its socket's memory runs at NVLink 2.0's
        # measured sequential bandwidth (Figure 3a).
        for gpu, memory in (("gpu0", "cpu0-mem"), ("gpu1", "cpu1-mem")):
            assert ibm.hops(gpu, memory) == 1
            assert cm.sequential_bandwidth(gpu, memory) == NVLINK2.seq_bw

    def test_bandwidth_decreases_with_hops(self, cm):
        local = cm.sequential_bandwidth("gpu0", "gpu0-mem")
        one = cm.sequential_bandwidth("gpu0", "cpu0-mem")
        two = cm.sequential_bandwidth("gpu0", "cpu1-mem")
        assert local > one > two

    def test_latency_increases_with_hops(self, cm):
        assert (
            cm.path_latency("cpu0", "cpu0-mem")
            < cm.path_latency("cpu0", "cpu1-mem")
            < cm.path_latency("cpu0", "gpu1-mem")
        )

    def test_path_latency_accumulates(self, cm):
        local = cm.path_latency("cpu0", "cpu0-mem")
        remote = cm.path_latency("gpu0", "cpu0-mem")
        assert remote == pytest.approx(local + 434e-9)

    def test_random_rate_local_gpu(self, cm):
        # HBM's independent random capacity ~ 8.9e9 accesses/s.
        rate = cm.random_access_rate("gpu0", "gpu0-mem")
        assert rate == pytest.approx(9.6e9, rel=0.05)

    def test_random_rate_over_nvlink(self, cm):
        rate = cm.random_access_rate("gpu0", "cpu0-mem")
        assert rate == pytest.approx(1.35e9, rel=0.05)

    def test_random_rate_over_pcie_much_lower(self, cm_intel):
        rate = cm_intel.random_access_rate("gpu0", "cpu0-mem")
        assert rate == pytest.approx(0.054e9, rel=0.05)

    def test_extra_hops_reduce_rate(self, cm):
        one = cm.random_access_rate("gpu0", "cpu0-mem")
        two = cm.random_access_rate("gpu0", "cpu1-mem")
        three = cm.random_access_rate("gpu0", "gpu1-mem")
        assert one > two >= three

    def test_atomic_rate_local_gpu(self, cm):
        assert cm.atomic_rate("gpu0", "gpu0-mem") == pytest.approx(1.7e9)

    def test_atomic_rate_over_nvlink(self, cm):
        assert cm.atomic_rate("gpu0", "cpu0-mem") == pytest.approx(0.45e9)

    def test_contended_atomics_slower(self, cm):
        free = cm.atomic_rate("cpu0", "cpu0-mem")
        contended = cm.atomic_rate("cpu0", "cpu0-mem", contended=True)
        assert contended < free


class TestSequentialOccupancy:
    def test_local_scan_occupancy(self, cm):
        profile = AccessProfile(streams=[seq_stream("cpu0", "cpu0-mem", 117 * GIB)])
        cost = cm.phase_cost(profile)
        assert cost.seconds == pytest.approx(1.0, rel=0.02)
        assert cost.bottleneck == "mem:cpu0-mem"

    def test_remote_scan_bound_by_link(self, cm):
        profile = AccessProfile(streams=[seq_stream("gpu0", "cpu0-mem", 63 * GIB)])
        cost = cm.phase_cost(profile)
        assert cost.seconds == pytest.approx(1.0, rel=0.02)
        assert cost.bottleneck.startswith("link:nvlink2")

    def test_bandwidth_factor_slows_stream(self, cm):
        fast = AccessProfile(streams=[seq_stream("gpu0", "cpu0-mem", GIB)])
        slow = AccessProfile(
            streams=[seq_stream("gpu0", "cpu0-mem", GIB, bandwidth_factor=0.5)]
        )
        assert cm.phase_cost(slow).seconds == pytest.approx(
            2 * cm.phase_cost(fast).seconds, rel=0.01
        )

    def test_two_streams_share_a_link(self, cm):
        one = AccessProfile(streams=[seq_stream("gpu0", "cpu0-mem", GIB)])
        two = AccessProfile(
            streams=[
                seq_stream("gpu0", "cpu0-mem", GIB),
                seq_stream("gpu0", "cpu0-mem", GIB),
            ]
        )
        assert cm.phase_cost(two).seconds == pytest.approx(
            2 * cm.phase_cost(one).seconds, rel=0.01
        )

    def test_disjoint_streams_overlap(self, cm):
        profile = AccessProfile(
            streams=[
                seq_stream("gpu0", "gpu0-mem", GIB),
                seq_stream("cpu0", "cpu0-mem", GIB),
            ]
        )
        solo = AccessProfile(streams=[seq_stream("cpu0", "cpu0-mem", GIB)])
        # The CPU stream is the slower one; adding the GPU stream on a
        # disjoint resource must not extend the phase.
        assert cm.phase_cost(profile).seconds == pytest.approx(
            cm.phase_cost(solo).seconds, rel=0.01
        )


class TestRandomOccupancy:
    def test_random_stream_deposits_on_issue_link_mem(self, cm):
        profile = AccessProfile(
            streams=[random_stream("gpu0", "cpu0-mem", 1e9, 8)]
        )
        occupancy = cm.profile_occupancy(profile)
        assert any(k.startswith("issue:gpu0") for k in occupancy)
        assert any(k.startswith("link:nvlink2") for k in occupancy)
        assert any(k.startswith("mem:cpu0-mem") for k in occupancy)

    def test_nvlink_random_bound(self, cm):
        profile = AccessProfile(
            streams=[random_stream("gpu0", "cpu0-mem", 1.35e9, 8)]
        )
        assert cm.phase_cost(profile).seconds == pytest.approx(1.0, rel=0.05)

    def test_cached_table_served_by_l2(self, cm):
        # 4 MiB working set fits the V100 L2 when local.
        profile = AccessProfile(
            streams=[
                random_stream(
                    "gpu0", "gpu0-mem", 1e9, 8, working_set_bytes=4 << 20
                )
            ]
        )
        occupancy = cm.profile_occupancy(profile)
        assert "cache:gpu0:l2" in occupancy

    def test_memory_side_l2_cannot_cache_remote(self, cm):
        profile = AccessProfile(
            streams=[
                random_stream(
                    "gpu0", "cpu0-mem", 1e9, 8, working_set_bytes=4 << 20
                )
            ]
        )
        occupancy = cm.profile_occupancy(profile)
        assert "cache:gpu0:l2" not in occupancy
        # ... and a 4 MiB table exceeds the effective remote L1 capacity,
        # so no L1 relief either (Figure 14 workload B).
        assert "cache:gpu0:l1" not in occupancy

    def test_skewed_remote_accesses_hit_gpu_l1(self, cm):
        hot = HotSetProfile.zipf(2**27, 1.5)
        profile = AccessProfile(
            streams=[
                random_stream(
                    "gpu0", "cpu0-mem", 1e9, 8,
                    working_set_bytes=2 << 30, hot_set=hot,
                )
            ]
        )
        occupancy = cm.profile_occupancy(profile)
        assert "cache:gpu0:l1" in occupancy

    def test_skewed_noncoherent_uses_um_migration(self, cm_intel):
        hot = HotSetProfile.zipf(2**27, 1.5)
        profile = AccessProfile(
            streams=[
                random_stream(
                    "gpu0", "cpu0-mem", 1e9, 8,
                    working_set_bytes=2 << 30, hot_set=hot,
                )
            ]
        )
        occupancy = cm_intel.profile_occupancy(profile)
        assert "cache:gpu0:um" in occupancy

    def test_atomics_slower_than_reads(self, cm):
        reads = AccessProfile(streams=[random_stream("gpu0", "gpu0-mem", 1e9, 16)])
        atomics = AccessProfile(streams=[atomic_stream("gpu0", "gpu0-mem", 1e9, 16)])
        assert cm.phase_cost(atomics).seconds > cm.phase_cost(reads).seconds


class TestComputeAndOverheads:
    def test_compute_occupancy(self, cm):
        profile = AccessProfile(
            streams=[seq_stream("cpu0", "cpu0-mem", 1)],
            compute_tuples=4e9,  # POWER9 retires 4e9 work units/s
        )
        assert cm.phase_cost(profile).seconds == pytest.approx(1.0, rel=0.02)

    def test_fixed_overhead_added(self, cm):
        profile = AccessProfile(
            streams=[seq_stream("cpu0", "cpu0-mem", 1)], fixed_overhead=0.5
        )
        assert cm.phase_cost(profile).seconds >= 0.5

    def test_makespan_factor_applied(self, cm):
        base = AccessProfile(streams=[seq_stream("gpu0", "cpu0-mem", GIB)])
        stretched = AccessProfile(
            streams=[seq_stream("gpu0", "cpu0-mem", GIB)], makespan_factor=2.0
        )
        assert cm.phase_cost(stretched).seconds == pytest.approx(
            2 * cm.phase_cost(base).seconds, rel=0.01
        )

    def test_empty_profile(self, cm):
        cost = cm.phase_cost(AccessProfile(fixed_overhead=0.1))
        assert cost.seconds == 0.1
        assert cost.bottleneck == "(none)"

    def test_occupancy_per_unit(self, cm):
        profile = AccessProfile(streams=[seq_stream("gpu0", "cpu0-mem", GIB)])
        per_unit = cm.occupancy_per_unit(profile, units=1000)
        full = cm.profile_occupancy(profile)
        for resource, value in per_unit.items():
            assert value == pytest.approx(full[resource] / 1000)

    def test_occupancy_per_unit_rejects_zero(self, cm):
        with pytest.raises(ValueError):
            cm.occupancy_per_unit(AccessProfile(), 0)


class TestComputeOnlyProfiles:
    """Regression: compute-only profiles used to price to zero seconds
    because compute time was attributed via stream processors only."""

    def test_explicit_processor_prices_compute(self, cm):
        profile = AccessProfile(compute_tuples=4e9, processor="cpu0")
        cost = cm.phase_cost(profile)
        assert cost.seconds == pytest.approx(1.0, rel=0.02)
        assert cost.bottleneck == "compute:cpu0"

    def test_gpu_compute_rate_differs_from_cpu(self, cm):
        cpu = AccessProfile(compute_tuples=1e9, processor="cpu0")
        gpu = AccessProfile(compute_tuples=1e9, processor="gpu0")
        assert cm.phase_cost(gpu).seconds < cm.phase_cost(cpu).seconds

    def test_no_streams_and_no_processor_rejected(self, cm):
        profile = AccessProfile(compute_tuples=1e9, label="orphan")
        with pytest.raises(ValueError, match="orphan.*processor"):
            cm.phase_cost(profile)

    def test_explicit_processor_overrides_stream_split(self, cm):
        streams = [seq_stream("cpu0", "cpu0-mem", 1)]
        split = AccessProfile(streams=list(streams), compute_tuples=4e9)
        pinned = AccessProfile(
            streams=list(streams), compute_tuples=4e9, processor="gpu0"
        )
        assert "compute:cpu0" in cm.profile_occupancy(split)
        occupancy = cm.profile_occupancy(pinned)
        assert "compute:gpu0" in occupancy
        assert "compute:cpu0" not in occupancy

    def test_scaled_preserves_processor(self):
        profile = AccessProfile(compute_tuples=100.0, processor="gpu0")
        assert profile.scaled(0.5).processor == "gpu0"
