"""Property-based tests for the memory substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.topology import ibm_ac922
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import Allocator, OutOfMemoryError
from repro.memory.hybrid import allocate_hybrid
from repro.utils.units import GIB


class TestAddressSpaceProperties:
    @given(
        sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_segments_partition_the_space(self, sizes):
        space = AddressSpace()
        for i, size in enumerate(sizes):
            space.append(size, f"region-{i % 3}")
        assert space.size == sum(sizes)
        # Every byte resolves to exactly one region; fractions sum to 1.
        assert sum(space.region_fraction(f"region-{i}") for i in range(3)) == (
            pytest.approx(1.0)
        )
        # Boundary offsets resolve to the right region.
        offset = 0
        for i, size in enumerate(sizes):
            assert space.region_of(offset) == f"region-{i % 3}"
            offset += size

    @given(sizes=st.lists(st.integers(1, 100), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_bytes_per_region_consistent(self, sizes):
        space = AddressSpace()
        for size in sizes:
            space.append(size, "only")
        assert space.bytes_per_region() == {"only": sum(sizes)}


class TestHybridAllocationProperties:
    @given(gib=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_gpu_first(self, gib):
        machine = ibm_ac922()
        allocator = Allocator(machine)
        nbytes = gib * GIB
        allocation = allocate_hybrid(allocator, "gpu0", nbytes, gpu_reserve=0)
        per_region = allocation.bytes_per_region()
        # Conservation: bytes sum exactly.
        assert sum(per_region.values()) == nbytes
        # GPU-first: GPU holds min(16 GiB, everything).
        assert per_region.get("gpu0-mem", 0) == min(nbytes, 16 * GIB)
        # Cleanup restores all capacity.
        allocation.free(allocator)
        for memory in machine.memories.values():
            assert memory.allocated == 0

    @given(
        gib=st.integers(17, 40),
        reserve_gib=st.integers(0, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_reserve_always_respected(self, gib, reserve_gib):
        machine = ibm_ac922()
        allocator = Allocator(machine)
        allocation = allocate_hybrid(
            allocator, "gpu0", gib * GIB, gpu_reserve=reserve_gib * GIB
        )
        assert machine.memory("gpu0-mem").free_bytes >= reserve_gib * GIB
        allocation.free(allocator)


class TestPayloadLineFractionProperty:
    @given(
        selectivity=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    # This mask's match density is 0.0596, not 0.0566: a formula at the
    # drawn selectivity misses the bound, one at the density does not.
    @example(selectivity=0.056640625, seed=382)
    @settings(max_examples=50, deadline=None)
    def test_matches_analytic_formula(self, selectivity, seed):
        """line fraction is the share of 16-entry lines holding a match,
        ~= 1 - (1-d)^16 at the mask's realised match density d."""
        from repro.core.join.nopa import payload_line_fraction

        rng = np.random.default_rng(seed)
        mask = rng.random(1 << 16) < selectivity
        measured = payload_line_fraction(mask, payload_bytes=8)
        assert measured == mask.reshape(-1, 16).any(axis=1).mean()
        density = np.count_nonzero(mask) / mask.size
        analytic = 1.0 - (1.0 - density) ** 16
        assert measured == pytest.approx(analytic, abs=0.03)

    @given(payload_bytes=st.sampled_from([4, 8, 16]), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_monotone_in_density(self, payload_bytes, seed):
        from repro.core.join.nopa import payload_line_fraction

        rng = np.random.default_rng(seed)
        sparse = rng.random(4096) < 0.05
        dense = sparse | (rng.random(4096) < 0.3)
        f_sparse = payload_line_fraction(sparse, payload_bytes)
        f_dense = payload_line_fraction(dense, payload_bytes)
        assert 0.0 <= f_sparse <= f_dense <= 1.0
