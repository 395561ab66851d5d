"""The eight transfer methods of Table 1, as cost-model plugins.

Each method answers:

* is it *supported* on a given machine/route (Coherence needs NVLink),
* which :class:`MemoryKind` must the source data live in,
* the *effective ingest bandwidth* for streaming ``nbytes`` to the GPU,
* whether data *lands in GPU memory* (push methods and UM migration) or
  is read in place over the interconnect (Zero-Copy, Coherence), and
* any *side traffic* (Staged Copy's extra CPU-memory round trip; the
  MMIO copy thread of Pageable Copy).

The join operators combine these ingredients into access profiles; the
numbers behind the calibration constants are Figure 12's measurements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, TypeVar

from repro.costmodel.access import Stream, seq_stream
from repro.costmodel.calibration import Calibration
from repro.costmodel.model import CostModel
from repro.faults.runtime import active_plan
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import Machine

if TYPE_CHECKING:
    from repro.data.relation import ColumnTable, Relation


class UnsupportedTransferError(RuntimeError):
    """Raised when a method cannot run on the given machine or memory."""


class TransferMethod:
    """Base class; subclasses are stateless singletons in the registry."""

    name: str = ""
    semantics: str = ""  # "push" or "pull"
    level: str = ""  # "SW", "OS", "HW"
    granularity: str = ""  # "chunk", "page", "byte"
    required_kind: MemoryKind = MemoryKind.PAGEABLE

    # ------------------------------------------------------------------
    def supported(self, machine: Machine, gpu_name: str, src_memory: str) -> bool:
        """Whether this method works on the given route."""
        return True

    def supported_kinds(self) -> FrozenSet[MemoryKind]:
        """Memory kinds this method can read from (Table 1's "memory")."""
        return frozenset({self.required_kind})

    def check_supported(
        self,
        machine: Machine,
        gpu_name: str,
        src_memory: str,
        kind: Optional[MemoryKind] = None,
    ) -> None:
        """Raise UnsupportedTransferError if the route or kind is invalid.

        ``kind`` is the source allocation's :class:`MemoryKind`.  CUDA
        enforces Table 1's kind requirements at runtime (Zero-Copy from
        pageable memory simply faults), so pricing such a transfer as
        valid silently produced numbers for impossible configurations;
        pass the source kind to get the real behaviour.  ``None`` skips
        the kind check (route-only validation).
        """
        if not self.supported(machine, gpu_name, src_memory):
            raise UnsupportedTransferError(
                f"{self.name} is unsupported from {src_memory} to {gpu_name} "
                f"on {machine.name}"
            )
        if kind is not None and kind not in self.supported_kinds():
            valid = ", ".join(sorted(k.value for k in self.supported_kinds()))
            raise UnsupportedTransferError(
                f"{self.name} requires {valid} source memory, but "
                f"{src_memory} holds a {kind.value} allocation "
                "(Table 1); reallocate the relation or pick a method "
                "that supports its kind"
            )

    # ------------------------------------------------------------------
    def lands_in_gpu_memory(self) -> bool:
        """Push methods stage data into GPU memory before the kernel."""
        return self.semantics == "push"

    def _route_bandwidth(self, cost_model: CostModel, gpu_name: str, src: str) -> float:
        return cost_model.sequential_bandwidth(gpu_name, src)

    def _gpu_link_spec_name(
        self, machine: Machine, gpu_name: str, src_memory: str
    ) -> str:
        path = machine.path(gpu_name, src_memory)
        if not path:
            raise UnsupportedTransferError(
                f"{self.name}: {src_memory} is local to {gpu_name}; "
                "no transfer needed"
            )
        return path[0].spec.name

    def _page_bytes(self, machine: Machine, src_memory: str) -> int:
        return machine.memory(src_memory).spec.page_bytes

    def ingest_bandwidth(
        self, cost_model: CostModel, gpu_name: str, src_memory: str
    ) -> float:
        """Effective bytes/s streamed from ``src_memory`` to the GPU."""
        raise NotImplementedError

    def effective_ingest_bandwidth(
        self, cost_model: CostModel, gpu_name: str, src_memory: str
    ) -> float:
        """:meth:`ingest_bandwidth`, degraded by any active fault plan.

        This is the choke point the pricing layer calls: an installed
        :class:`~repro.faults.FaultPlan` with a ``DegradeLink`` rule
        scales the method's bandwidth here (a contended or downtrained
        interconnect), so chaos runs price the slow link without the
        methods themselves knowing about fault injection.
        """
        bandwidth = self.ingest_bandwidth(cost_model, gpu_name, src_memory)
        plan = active_plan()
        if plan is not None:
            bandwidth *= plan.bandwidth_factor(self.name, gpu_name, src_memory)
        return bandwidth

    def side_streams(
        self,
        machine: Machine,
        gpu_name: str,
        src_memory: str,
        nbytes: float,
    ) -> List[Stream]:
        """Extra traffic on other resources caused by the transfer."""
        return []

    def pipeline_overlap_factor(self, calibration: Calibration) -> float:
        """Makespan multiplier for transfer/compute overlap.

        Pull methods read data from inside the kernel — the transfer *is*
        the computation's memory access, so there is no fill/drain cost.
        Push methods pay one chunk of pipeline fill.
        """
        if self.semantics == "pull":
            return 1.0
        return 1.0 + 1.0 / calibration.pipeline_chunks

    def __repr__(self) -> str:
        return f"<TransferMethod {self.name}>"


# ---------------------------------------------------------------------------
# Push-based methods (Section 4.1)
# ---------------------------------------------------------------------------


class PageableCopy(TransferMethod):
    """cudaMemcpyAsync from pageable memory: a CPU thread copies via MMIO."""

    name = "pageable_copy"
    semantics = "push"
    level = "SW"
    granularity = "chunk"
    required_kind = MemoryKind.PAGEABLE

    def ingest_bandwidth(
        self, cost_model: CostModel, gpu_name: str, src_memory: str
    ) -> float:
        link = self._gpu_link_spec_name(cost_model.machine, gpu_name, src_memory)
        mmio = cost_model.calibration.mmio_bandwidth.get(link)
        if mmio is None:
            raise UnsupportedTransferError(f"no MMIO bandwidth known for {link}")
        return min(mmio, self._route_bandwidth(cost_model, gpu_name, src_memory))

    def side_streams(self, machine, gpu_name, src_memory, nbytes):
        # The copying CPU thread re-reads the source from CPU memory.
        owner_cpu = machine.memory(src_memory).owner
        return [
            seq_stream(owner_cpu, src_memory, nbytes, label="mmio copy thread")
        ]


class PinnedCopy(TransferMethod):
    """cudaMemcpyAsync from pinned memory: DMA copy engines."""

    name = "pinned_copy"
    semantics = "push"
    level = "SW"
    granularity = "chunk"
    required_kind = MemoryKind.PINNED

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        route = self._route_bandwidth(cost_model, gpu_name, src_memory)
        return route * cost_model.calibration.dma_efficiency


class StagedCopy(TransferMethod):
    """Copy pageable chunks into a pinned staging buffer, then DMA.

    The hidden cost: roughly four CPU cores are fully busy staging, and
    CPU memory sees the data twice (read from pageable + write to the
    pinned buffer), Section 7.2.1.
    """

    name = "staged_copy"
    semantics = "push"
    level = "SW"
    granularity = "chunk"
    required_kind = MemoryKind.PAGEABLE

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        route = self._route_bandwidth(cost_model, gpu_name, src_memory)
        return min(
            cost_model.calibration.staging_bandwidth,
            route * cost_model.calibration.dma_efficiency,
        )

    def side_streams(self, machine, gpu_name, src_memory, nbytes):
        owner_cpu = machine.memory(src_memory).owner
        return [
            seq_stream(owner_cpu, src_memory, 2 * nbytes, label="staging memcpy")
        ]


class DynamicPinning(TransferMethod):
    """Pin preexisting pageable pages ad hoc, then DMA them."""

    name = "dynamic_pinning"
    semantics = "push"
    level = "SW"
    granularity = "chunk"
    required_kind = MemoryKind.PAGEABLE

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        machine = cost_model.machine
        pin_cost = cost_model.calibration.pin_page_cost.get(machine.name)
        if pin_cost is None:
            raise UnsupportedTransferError(
                f"no pinning cost calibrated for machine {machine.name}"
            )
        page = self._page_bytes(machine, src_memory)
        pin_bandwidth = page / pin_cost
        route = self._route_bandwidth(cost_model, gpu_name, src_memory)
        return min(pin_bandwidth, route * cost_model.calibration.dma_efficiency)


class UnifiedPrefetch(TransferMethod):
    """cudaMemPrefetchAsync of unified memory ahead of the access."""

    name = "um_prefetch"
    semantics = "push"
    level = "SW"
    granularity = "chunk"
    required_kind = MemoryKind.UNIFIED

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        machine = cost_model.machine
        efficiency = cost_model.calibration.um_prefetch_efficiency.get(machine.name)
        if efficiency is None:
            raise UnsupportedTransferError(
                f"no UM prefetch efficiency calibrated for {machine.name}"
            )
        return self._route_bandwidth(cost_model, gpu_name, src_memory) * efficiency


# ---------------------------------------------------------------------------
# Pull-based methods (Section 4.2)
# ---------------------------------------------------------------------------


class UnifiedMigration(TransferMethod):
    """OS-driven page migration on GPU page faults."""

    name = "um_migration"
    semantics = "pull"
    level = "OS"
    granularity = "page"
    required_kind = MemoryKind.UNIFIED

    def lands_in_gpu_memory(self) -> bool:
        # Faulted pages are *moved* into GPU memory, so subsequent
        # accesses (e.g. repeated probes) are local.
        return True

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        machine = cost_model.machine
        fault_cost = cost_model.calibration.um_fault_cost.get(machine.name)
        if fault_cost is None:
            raise UnsupportedTransferError(
                f"no UM fault cost calibrated for {machine.name}"
            )
        page = self._page_bytes(machine, src_memory)
        fault_bandwidth = page / fault_cost
        return min(
            fault_bandwidth, self._route_bandwidth(cost_model, gpu_name, src_memory)
        )


class ZeroCopy(TransferMethod):
    """Unified Virtual Addressing: byte-granular DMA into pinned memory."""

    name = "zero_copy"
    semantics = "pull"
    level = "HW"
    granularity = "byte"
    required_kind = MemoryKind.PINNED

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        return self._route_bandwidth(cost_model, gpu_name, src_memory)


class Coherence(TransferMethod):
    """NVLink 2.0 hardware coherence: byte-granular pageable access.

    Unsupported on PCI-e 3.0 machines (Figure 12: "the Coherence method
    is unsupported by PCI-e 3.0, due to PCI-e being non-cache-coherent").
    """

    name = "coherence"
    semantics = "pull"
    level = "HW"
    granularity = "byte"
    required_kind = MemoryKind.PAGEABLE

    def supported(self, machine: Machine, gpu_name: str, src_memory: str) -> bool:
        path = machine.path(gpu_name, src_memory)
        return bool(path) and all(link.spec.cache_coherent for link in path)

    def ingest_bandwidth(self, cost_model, gpu_name, src_memory):
        self.check_supported(cost_model.machine, gpu_name, src_memory)
        return self._route_bandwidth(cost_model, gpu_name, src_memory)


TRANSFER_METHODS: Dict[str, TransferMethod] = {
    method.name: method
    for method in (
        PageableCopy(),
        StagedCopy(),
        DynamicPinning(),
        PinnedCopy(),
        UnifiedPrefetch(),
        UnifiedMigration(),
        ZeroCopy(),
        Coherence(),
    )
}


def get_method(name: str) -> TransferMethod:
    """Look a method up by name; raises with the list of valid names."""
    try:
        return TRANSFER_METHODS[name]
    except KeyError:
        valid = ", ".join(sorted(TRANSFER_METHODS))
        raise UnsupportedTransferError(
            f"unknown transfer method {name!r}; valid: {valid}"
        ) from None


TableT = TypeVar("TableT", "Relation", "ColumnTable")


def placed_for(
    table: TableT, transfer_method: str, location: Optional[str] = None
) -> TableT:
    """``table`` allocated as ``transfer_method`` requires (Table 1).

    Each method ties its source to a memory kind (Zero-Copy needs pinned
    pages, the UM methods unified allocations) and the cost model
    enforces it, so a sweep over methods re-allocates its inputs between
    series, as the paper's harness does.  ``location`` moves the table
    too (``None``: it stays where it is).
    """
    kind = get_method(transfer_method).required_kind
    return table.placed(location or table.location, kind=kind)
