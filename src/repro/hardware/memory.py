"""Memory regions and memory kinds.

A :class:`MemoryRegion` is one physical memory pool in the machine (one
CPU socket's DRAM, or one GPU's HBM2).  Allocations carve capacity out of
regions; the allocator lives in :mod:`repro.memory.allocator`.

The *kind* of an allocation matters for transfer methods (Table 1):
zero-copy requires pinned memory, unified-memory methods require unified
allocations, and only NVLink 2.0's Coherence method can touch pageable
memory directly from the GPU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.specs import MemorySpec


class MemoryKind(enum.Enum):
    """Allocation kinds distinguished by CUDA and the paper's Table 1."""

    PAGEABLE = "pageable"
    PINNED = "pinned"
    UNIFIED = "unified"
    DEVICE = "device"


@dataclass
class MemoryRegion:
    """A physical memory pool owned by one processor.

    Attributes:
        name: unique name within the machine, e.g. ``"cpu0-mem"``.
        spec: the memory technology data sheet.
        owner: name of the processor this memory is local to.
        allocated: bytes currently allocated (maintained by the allocator).
    """

    name: str
    spec: MemorySpec
    owner: str
    allocated: int = 0

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.allocated

    def reserve(self, nbytes: int) -> None:
        """Take ``nbytes`` out of the region; raises if it does not fit."""
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes: {nbytes}")
        if nbytes > self.free_bytes:
            raise MemoryError(
                f"{self.name}: cannot reserve {nbytes} bytes "
                f"({self.free_bytes} free of {self.capacity})"
            )
        self.allocated += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the region."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        if nbytes > self.allocated:
            raise ValueError(
                f"{self.name}: releasing {nbytes} bytes but only "
                f"{self.allocated} are allocated"
            )
        self.allocated -= nbytes

    def __str__(self) -> str:
        return f"MemoryRegion({self.name}, {self.spec.name}, owner={self.owner})"
