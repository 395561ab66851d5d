"""Hybrid and interleaved allocation policies.

:func:`allocate_hybrid` implements the greedy algorithm of Figure 8:

1. allocate GPU memory by default;
2. if the GPU is full, spill to the CPU memory *nearest* to the GPU;
3. if that CPU is full too, recursively search the next-nearest CPUs of
   the multi-socket NUMA system.

The result is a single contiguous virtual array (``AddressSpace``) whose
leading bytes live in GPU memory — exactly what the hybrid hash table
needs for graceful degradation (Section 5.3).

:func:`allocate_interleaved` implements the multi-GPU placement of
Section 6.3: pages interleaved round-robin over all GPU memories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.hardware.memory import MemoryKind
from repro.memory.address_space import AddressSpace, RoundRobinAddressSpace
from repro.memory.allocator import Allocation, Allocator, OutOfMemoryError
from repro.utils.units import MIB


@dataclass
class HybridAllocation:
    """A contiguous virtual allocation spanning several physical regions."""

    nbytes: int
    address_space: AddressSpace
    pieces: List[Allocation] = field(default_factory=list)
    label: str = ""
    freed: bool = field(default=False, repr=False)

    @property
    def gpu_fraction(self) -> float:
        """Fraction of bytes resident in GPU memory (A_GPU of Section 5.3).

        Returns 0.0 once the allocation has been freed — nothing is
        resident anywhere.
        """
        gpu_bytes = sum(p.nbytes for p in self.pieces if p.is_gpu_memory)
        if self.nbytes == 0:
            return 0.0
        return gpu_bytes / self.nbytes

    def bytes_per_region(self) -> Dict[str, int]:
        """Reserved bytes per memory region (the pieces' sizes summed).

        Raises:
            RuntimeError: if the allocation has been freed — the address
                space no longer maps any bytes.
        """
        if self.freed:
            raise RuntimeError(
                f"hybrid allocation {self.label!r} has been freed; "
                "its address space maps no bytes"
            )
        totals: Dict[str, int] = {}
        for piece in self.pieces:
            name = piece.region.name
            totals[name] = totals.get(name, 0) + piece.nbytes
        return totals

    def free(self, allocator: Allocator) -> None:
        """Release every physical piece and invalidate the address space."""
        if self.freed:
            raise RuntimeError(
                f"hybrid allocation {self.label!r} already freed"
            )
        for piece in self.pieces:
            allocator.free(piece)
        self.pieces.clear()
        # Invalidate the virtual mapping too: a freed allocation must not
        # keep reporting mapped bytes through bytes_per_region().
        self.address_space = AddressSpace()
        self.freed = True


def allocate_hybrid(
    allocator: Allocator,
    gpu_name: str,
    nbytes: int,
    spill_kind: MemoryKind = MemoryKind.PAGEABLE,
    gpu_reserve: int = 0,
    label: str = "hybrid",
) -> HybridAllocation:
    """Greedy GPU-first allocation with NUMA-recursive CPU spill (Fig. 8).

    Args:
        allocator: the machine's allocator.
        gpu_name: the GPU whose memory is preferred.
        nbytes: total bytes of the contiguous virtual array.
        spill_kind: memory kind for spilled CPU pages (Coherence works on
            pageable memory; Zero-Copy would need pinned).
        gpu_reserve: GPU bytes to leave free (for staging buffers etc.).

    Raises:
        OutOfMemoryError: when GPU plus all CPU regions cannot hold it.
    """
    if nbytes < 0:
        raise ValueError(f"allocation size must be non-negative: {nbytes}")
    machine = allocator.machine
    gpu = machine.processor(gpu_name)
    space = AddressSpace()
    pieces: List[Allocation] = []
    remaining = nbytes

    def take(region_name: str, amount: int, kind: MemoryKind) -> None:
        nonlocal remaining
        if amount <= 0:
            return
        try:
            piece = allocator.alloc(region_name, amount, kind=kind, label=label)
        except OutOfMemoryError:
            # The region filled up between the capacity probe and the
            # reservation (a concurrent allocation, or an injected fault
            # simulating one): treat it as exhausted and spill onward —
            # that *is* the greedy algorithm's step 2/3.
            return
        pieces.append(piece)
        space.append(amount, region_name)
        remaining -= amount

    # Step 1: GPU memory first.
    gpu_region = gpu.local_memory
    gpu_available = max(0, gpu_region.free_bytes - gpu_reserve)
    take(gpu_region.name, min(remaining, gpu_available), MemoryKind.DEVICE)

    # Step 2: nearest CPU, then recursively the next-nearest (NUMA).
    if remaining > 0:
        for cpu_region in machine.cpu_memories_by_distance(gpu_name):
            if remaining == 0:
                break
            take(cpu_region.name, min(remaining, cpu_region.free_bytes), spill_kind)

    if remaining > 0:
        for piece in pieces:
            allocator.free(piece)
        raise OutOfMemoryError(
            f"hybrid allocation of {nbytes} bytes does not fit: "
            f"{remaining} bytes left after exhausting GPU and CPU memory"
        )
    return HybridAllocation(
        nbytes=nbytes, address_space=space, pieces=pieces, label=label
    )


def allocate_interleaved(
    allocator: Allocator,
    gpu_names: Sequence[str],
    nbytes: int,
    page_bytes: int = 2 * MIB,
    label: str = "interleaved",
) -> HybridAllocation:
    """Interleave pages over several GPUs' memories (Section 6.3).

    Multi-GPU systems distribute large hash tables by interleaving pages
    over all GPUs, the same strategy NUMA systems use; GPUs tolerate the
    remote-access latency. Pages are dealt round-robin at ``page_bytes``
    granularity (the last page may be partial); the address space maps
    every page, and each GPU's pages are reserved as one piece.

    Raises:
        OutOfMemoryError: when some GPU cannot hold its share; nothing
            stays reserved.
    """
    if not gpu_names:
        raise ValueError("need at least one GPU to interleave over")
    if nbytes < 0:
        raise ValueError(f"allocation size must be non-negative: {nbytes}")
    if page_bytes <= 0:
        raise ValueError(f"page_bytes must be positive: {page_bytes}")
    machine = allocator.machine
    space = RoundRobinAddressSpace(
        nbytes,
        page_bytes,
        [machine.processor(name).local_memory.name for name in gpu_names],
    )
    shares = space.bytes_per_region()
    for name, share in shares.items():
        free = machine.memory(name).free_bytes
        if free < share:
            raise OutOfMemoryError(
                f"interleaved allocation: {name} has {free} bytes free for "
                f"its {share}-byte share of {nbytes} bytes"
            )
    pieces: List[Allocation] = []
    try:
        for name, share in shares.items():
            pieces.append(allocator.alloc(name, share, MemoryKind.DEVICE, label=label))
    except OutOfMemoryError:
        for piece in pieces:
            allocator.free(piece)
        raise
    return HybridAllocation(
        nbytes=nbytes, address_space=space, pieces=pieces, label=label
    )
