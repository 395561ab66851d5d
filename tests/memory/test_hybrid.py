"""Hybrid (Figure 8) and interleaved (Section 6.3) allocation."""

from typing import List

import pytest

from repro.faults import FaultPlan, OomAt
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import ibm_ac922
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import Allocation, Allocator, OutOfMemoryError
from repro.memory.hybrid import (
    HybridAllocation,
    allocate_hybrid,
    allocate_interleaved,
)
from repro.utils.units import GIB, MIB


@pytest.fixture
def allocator(ibm):
    return Allocator(ibm)


class TestHybrid:
    def test_small_table_stays_on_gpu(self, allocator):
        allocation = allocate_hybrid(allocator, "gpu0", 4 * GIB, gpu_reserve=0)
        assert allocation.gpu_fraction == 1.0
        assert allocation.bytes_per_region() == {"gpu0-mem": 4 * GIB}

    def test_oversized_table_spills_to_nearest_cpu(self, allocator):
        allocation = allocate_hybrid(allocator, "gpu0", 24 * GIB, gpu_reserve=0)
        regions = allocation.bytes_per_region()
        assert regions["gpu0-mem"] == 16 * GIB
        assert regions["cpu0-mem"] == 8 * GIB
        assert allocation.gpu_fraction == pytest.approx(16 / 24)

    def test_gpu_segment_comes_first(self, allocator):
        allocation = allocate_hybrid(allocator, "gpu0", 20 * GIB, gpu_reserve=0)
        segments = allocation.address_space.segments
        assert segments[0].region_name == "gpu0-mem"
        assert segments[1].region_name == "cpu0-mem"

    def test_gpu_reserve_respected(self, allocator):
        allocation = allocate_hybrid(
            allocator, "gpu0", 17 * GIB, gpu_reserve=2 * GIB
        )
        assert allocation.bytes_per_region()["gpu0-mem"] == 14 * GIB

    def test_numa_recursive_spill(self, allocator, ibm):
        # Fill cpu0's memory almost completely; the spill must continue
        # into cpu1's memory (the next-nearest NUMA node).
        cpu0 = ibm.memory("cpu0-mem")
        filler = allocator.alloc("cpu0-mem", cpu0.free_bytes - GIB)
        allocation = allocate_hybrid(allocator, "gpu0", 20 * GIB, gpu_reserve=0)
        regions = allocation.bytes_per_region()
        assert regions["gpu0-mem"] == 16 * GIB
        assert regions["cpu0-mem"] == GIB
        assert regions["cpu1-mem"] == 3 * GIB
        allocator.free(filler)

    def test_impossible_allocation_raises_and_rolls_back(self, allocator, ibm):
        total = sum(m.capacity for m in ibm.memories.values())
        with pytest.raises(OutOfMemoryError):
            allocate_hybrid(allocator, "gpu0", total + GIB, gpu_reserve=0)
        # Roll-back: nothing may stay allocated.
        for memory in ibm.memories.values():
            assert memory.allocated == 0

    def test_spill_kind_configurable(self, allocator):
        allocation = allocate_hybrid(
            allocator, "gpu0", 20 * GIB, gpu_reserve=0,
            spill_kind=MemoryKind.PINNED,
        )
        kinds = {p.region_name: p.kind for p in allocation.pieces}
        assert kinds["cpu0-mem"] is MemoryKind.PINNED
        assert kinds["gpu0-mem"] is MemoryKind.DEVICE

    def test_free_releases_everything(self, allocator, ibm):
        allocation = allocate_hybrid(allocator, "gpu0", 20 * GIB, gpu_reserve=0)
        allocation.free(allocator)
        for memory in ibm.memories.values():
            assert memory.allocated == 0

    def test_zero_bytes(self, allocator):
        allocation = allocate_hybrid(allocator, "gpu0", 0)
        assert allocation.nbytes == 0
        assert allocation.gpu_fraction == 0.0

    def test_free_invalidates_address_space(self, allocator):
        # Regression: free() used to clear pieces but leave the address
        # space mapped, so a freed allocation still reported resident
        # bytes per region.
        allocation = allocate_hybrid(allocator, "gpu0", 20 * GIB, gpu_reserve=0)
        assert allocation.bytes_per_region()  # valid before the free
        allocation.free(allocator)
        assert allocation.freed
        assert allocation.gpu_fraction == 0.0
        with pytest.raises(RuntimeError, match="has been freed"):
            allocation.bytes_per_region()

    def test_double_free_rejected(self, allocator):
        allocation = allocate_hybrid(allocator, "gpu0", 4 * GIB, gpu_reserve=0)
        allocation.free(allocator)
        with pytest.raises(RuntimeError, match="already freed"):
            allocation.free(allocator)


class TestInterleaved:
    def test_round_robin_over_gpus(self, allocator):
        allocation = allocate_interleaved(
            allocator, ["gpu0", "gpu1"], 8 * MIB, page_bytes=2 * MIB
        )
        regions = allocation.bytes_per_region()
        assert regions == {"gpu0-mem": 4 * MIB, "gpu1-mem": 4 * MIB}

    def test_segments_alternate(self, allocator):
        allocation = allocate_interleaved(
            allocator, ["gpu0", "gpu1"], 6 * MIB, page_bytes=2 * MIB
        )
        names = [s.region_name for s in allocation.address_space.segments]
        assert names == ["gpu0-mem", "gpu1-mem", "gpu0-mem"]

    def test_needs_at_least_one_gpu(self, allocator):
        with pytest.raises(ValueError):
            allocate_interleaved(allocator, [], GIB)

    def test_overflow_raises_and_rolls_back(self, allocator, ibm):
        with pytest.raises(OutOfMemoryError):
            allocate_interleaved(allocator, ["gpu0", "gpu1"], 40 * GIB)
        for memory in ibm.memories.values():
            assert memory.allocated == 0


def reference_allocate_interleaved(
    allocator, gpu_names, nbytes, page_bytes=2 * MIB, label="interleaved"
):
    """The page-by-page loop ``allocate_interleaved`` replaced (one
    ``alloc`` per page).  Kept verbatim as the equivalence oracle."""
    if not gpu_names:
        raise ValueError("need at least one GPU to interleave over")
    if nbytes < 0:
        raise ValueError(f"allocation size must be non-negative: {nbytes}")
    machine = allocator.machine
    regions = [machine.processor(name).local_memory for name in gpu_names]
    space = AddressSpace()
    pieces: List[Allocation] = []
    remaining = nbytes
    index = 0
    while remaining > 0:
        region = regions[index % len(regions)]
        amount = min(page_bytes, remaining)
        if region.free_bytes < amount:
            for piece in pieces:
                allocator.free(piece)
            raise OutOfMemoryError(
                f"interleaved allocation: {region.name} is full with "
                f"{remaining} bytes still to place"
            )
        piece = allocator.alloc(region.name, amount, MemoryKind.DEVICE, label=label)
        pieces.append(piece)
        space.append(amount, region.name)
        remaining -= amount
        index += 1
    return HybridAllocation(
        nbytes=nbytes, address_space=space, pieces=pieces, label=label
    )


def _interleave(allocate, gpus, nbytes, page_bytes, taken):
    """Run one allocator over a fresh 4-GPU machine whose GPU memories
    already hold ``taken`` bytes each; returns the outcome, with what the
    address space answers: queries first, then its page list, then the
    same after one more appended segment."""
    machine = ibm_ac922(gpus=4, gpu_mesh=True)
    allocator = Allocator(machine)
    if taken:
        for i in range(4):
            allocator.alloc(f"gpu{i}-mem", taken, MemoryKind.DEVICE)
    names = [f"gpu{i}" for i in range(gpus)]
    try:
        allocation = allocate(allocator, names, nbytes, page_bytes=page_bytes)
    except OutOfMemoryError:
        outcome = "oom"
        segments = per_region = queries = appended = None
    else:
        outcome = "ok"
        space = allocation.address_space
        per_region = space.bytes_per_region()
        assert allocation.bytes_per_region() == per_region
        queries = _space_queries(space, machine, page_bytes)
        segments = space.segments
        space.append(page_bytes, "cpu0-mem")
        appended = (
            _space_queries(space, machine, page_bytes),
            space.segments,
            space.bytes_per_region(),
        )
    allocated = {name: m.allocated for name, m in machine.memories.items()}
    return outcome, segments, per_region, allocated, queries, appended


def _space_queries(space, machine, page_bytes):
    """Size, the region at every page's first and last byte and each
    region's fraction; offsets outside the space must raise."""
    for offset in (-1, space.size):
        with pytest.raises(IndexError):
            space.region_of(offset)
    edges = [
        (space.region_of(start), space.region_of(min(start + page_bytes, space.size) - 1))
        for start in range(0, space.size, page_bytes)
    ]
    fractions = {name: space.region_fraction(name) for name in machine.memories}
    return space.size, edges, fractions


PAGE_SIZES = (4096, MIB, 2 * MIB, 3 * MIB + 7)


@pytest.mark.parametrize("gpus", [1, 2, 3, 4])
@pytest.mark.parametrize("page_bytes", PAGE_SIZES)
@pytest.mark.parametrize("pages,partial", [(0, 0), (0, 1), (1, 0), (5, 0), (5, 3), (9, 1)])
def test_interleaved_equals_page_loop(gpus, page_bytes, pages, partial):
    nbytes = pages * page_bytes + partial
    got = _interleave(allocate_interleaved, gpus, nbytes, page_bytes, 0)
    want = _interleave(reference_allocate_interleaved, gpus, nbytes, page_bytes, 0)
    assert got == want


@pytest.mark.parametrize("gpus", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "nbytes,page_bytes,free",
    [
        (40 * GIB, GIB, None),  # over every GPU's capacity together
        (17 * MIB, 2 * MIB, 5 * MIB),  # one page short on each GPU
        (17 * MIB, 2 * MIB, 9 * MIB),  # fits with 1 GPU short, else room
        # On 2 GPUs gpu0 holds a full and the partial last page: 4 MiB.
        (7 * MIB, 3 * MIB, 4 * MIB),
        (7 * MIB, 3 * MIB, 4 * MIB - 1),
    ],
)
def test_interleaved_oom_equals_page_loop(gpus, nbytes, page_bytes, free):
    taken = 0 if free is None else 16 * GIB - free
    got = _interleave(allocate_interleaved, gpus, nbytes, page_bytes, taken)
    want = _interleave(reference_allocate_interleaved, gpus, nbytes, page_bytes, taken)
    assert got == want


@pytest.mark.parametrize("page_bytes", [0, -MIB])
def test_interleaved_rejects_non_positive_pages(allocator, page_bytes):
    with pytest.raises(ValueError, match="page_bytes"):
        allocate_interleaved(allocator, ["gpu0", "gpu1"], 4 * MIB, page_bytes)
    assert allocator.live == {}


def test_interleaved_reserves_one_piece_per_gpu(allocator):
    allocation = allocate_interleaved(
        allocator, ["gpu0", "gpu1"], 7 * MIB, page_bytes=2 * MIB
    )
    assert [(p.region.name, p.nbytes) for p in allocation.pieces] == [
        ("gpu0-mem", 4 * MIB),
        ("gpu1-mem", 3 * MIB),
    ]
    assert len(allocation.address_space.segments) == 4


def test_interleaved_injected_oom_rolls_back(allocator, ibm):
    # OomAt ordinals count per-GPU reservations: ordinal 1 is gpu1's.
    plan = FaultPlan(seed=1, rules=[OomAt(ordinal=1, label="interleaved")])
    with plan.install():
        with pytest.raises(OutOfMemoryError):
            allocate_interleaved(allocator, ["gpu0", "gpu1"], 8 * MIB)
    assert allocator.live == {}
    for memory in ibm.memories.values():
        assert memory.allocated == 0
