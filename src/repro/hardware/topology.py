"""Machine topology: processors, memories, and the interconnect graph.

The two canonical machines replicate Figure 4 of the paper:

* :func:`ibm_ac922` — 2x POWER9 linked by X-Bus, each with a V100-SXM2
  behind 3x NVLink 2.0.  Data access paths of increasing hop count:
  GPU0 -> gpu0-mem (0 hops), -> cpu0-mem (1 hop, NVLink), -> cpu1-mem
  (2 hops, NVLink + X-Bus), -> gpu1-mem (3 hops, NVLink + X-Bus + NVLink).
* :func:`intel_xeon_v100` — 2x Xeon linked by UPI with one V100-PCIE
  behind PCI-e 3.0 on socket 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import MemoryRegion
from repro.hardware.processor import Cpu, Gpu, Processor, ProcessorKind
from repro.hardware.specs import (
    NVLINK2,
    PCIE3,
    POWER9,
    UPI,
    V100_PCIE,
    V100_SXM2,
    XBUS,
    XEON_6126,
    CpuSpec,
    GpuSpec,
    LinkSpec,
)


class TopologyError(ValueError):
    """Raised for malformed machine descriptions or unroutable paths."""


@dataclass
class Machine:
    """A heterogeneous machine: the unit the executor and benches run on.

    Grow a machine only through :meth:`add_cpu`, :meth:`add_gpu` and
    :meth:`connect`: they bump :attr:`generation` and drop the memoised
    routes and CPU-memory rankings, so anything derived from the
    topology (routes here, stream prices in a cost model) knows to
    recompute.
    """

    name: str
    processors: Dict[str, Processor] = field(default_factory=dict)
    memories: Dict[str, MemoryRegion] = field(default_factory=dict)
    links: List[Interconnect] = field(default_factory=list)
    #: bumped by every topology change.
    generation: int = field(default=0, init=False, compare=False)
    _paths: Dict[Tuple[str, str], Tuple[Interconnect, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: processor -> CPU memory regions, nearest first.
    _cpu_memories: Dict[str, Tuple[MemoryRegion, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cpu(self, name: str, spec: CpuSpec, memory_name: str) -> Cpu:
        """Add a CPU socket with its local memory region."""
        memory = MemoryRegion(name=memory_name, spec=spec.memory, owner=name)
        cpu = Cpu(
            name=name, kind=ProcessorKind.CPU, local_memory=memory, spec=spec
        )
        self._register(cpu, memory)
        return cpu

    def add_gpu(self, name: str, spec: GpuSpec, memory_name: str) -> Gpu:
        """Add a GPU with its local memory region."""
        memory = MemoryRegion(name=memory_name, spec=spec.memory, owner=name)
        gpu = Gpu(
            name=name, kind=ProcessorKind.GPU, local_memory=memory, spec=spec
        )
        self._register(gpu, memory)
        return gpu

    def _register(self, processor: Processor, memory: MemoryRegion) -> None:
        if processor.name in self.processors:
            raise TopologyError(f"duplicate processor name: {processor.name}")
        if memory.name in self.memories:
            raise TopologyError(f"duplicate memory name: {memory.name}")
        self.processors[processor.name] = processor
        self.memories[memory.name] = memory
        self._changed()

    def connect(self, a: str, b: str, spec: LinkSpec) -> Interconnect:
        """Add a link between two processors (by name)."""
        for end in (a, b):
            if end not in self.processors:
                raise TopologyError(f"unknown processor: {end}")
        link = Interconnect(spec=spec, endpoint_a=a, endpoint_b=b)
        self.links.append(link)
        self._changed()
        return link

    def _changed(self) -> None:
        self.generation += 1
        self._paths.clear()
        self._cpu_memories.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def processor(self, name: str) -> Processor:
        """Look a processor up by name."""
        try:
            return self.processors[name]
        except KeyError:
            raise TopologyError(f"unknown processor: {name}") from None

    def memory(self, name: str) -> MemoryRegion:
        """Look a memory region up by name."""
        try:
            return self.memories[name]
        except KeyError:
            raise TopologyError(f"unknown memory region: {name}") from None

    def cpus(self) -> List[Cpu]:
        """All CPU sockets, in insertion order."""
        return [p for p in self.processors.values() if isinstance(p, Cpu)]

    def gpus(self) -> List[Gpu]:
        """All GPUs, in insertion order."""
        return [p for p in self.processors.values() if isinstance(p, Gpu)]

    def cpu(self, index: int = 0) -> Cpu:
        """The index-th CPU socket."""
        cpus = self.cpus()
        if index >= len(cpus):
            raise TopologyError(f"machine has {len(cpus)} CPUs, asked for #{index}")
        return cpus[index]

    def gpu(self, index: int = 0) -> Gpu:
        """The index-th GPU."""
        gpus = self.gpus()
        if index >= len(gpus):
            raise TopologyError(f"machine has {len(gpus)} GPUs, asked for #{index}")
        return gpus[index]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def path(self, processor_name: str, memory_name: str) -> List[Interconnect]:
        """Shortest interconnect path from a processor to a memory region.

        Local memory yields an empty path.  Routing is breadth-first over
        the processor graph, then the memory hangs off its owner at zero
        link cost (the memory's own bandwidth/latency is accounted for by
        the cost model separately).  Routes are computed once per
        topology; every call returns a fresh list.
        """
        key = (processor_name, memory_name)
        route = self._paths.get(key)
        if route is None:
            route = self._paths[key] = tuple(
                self._route(processor_name, memory_name)
            )
        return list(route)

    def _route(self, processor_name: str, memory_name: str) -> List[Interconnect]:
        """Breadth-first route behind :meth:`path` (uncached)."""
        self.processor(processor_name)
        memory = self.memory(memory_name)
        target = memory.owner
        if processor_name == target:
            return []
        adjacency: Dict[str, List[Tuple[str, Interconnect]]] = {
            name: [] for name in self.processors
        }
        for link in self.links:
            adjacency[link.endpoint_a].append((link.endpoint_b, link))
            adjacency[link.endpoint_b].append((link.endpoint_a, link))
        # BFS for fewest hops; ties broken by insertion order.
        queue = deque([processor_name])
        parents: Dict[str, Tuple[str, Interconnect]] = {}
        seen = {processor_name}
        while queue:
            node = queue.popleft()
            if node == target:
                break
            for neighbor, link in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    parents[neighbor] = (node, link)
                    queue.append(neighbor)
        if target not in seen:
            raise TopologyError(
                f"no path from {processor_name} to memory {memory_name}"
            )
        path: List[Interconnect] = []
        node = target
        while node != processor_name:
            node, link = parents[node]
            path.append(link)
        path.reverse()
        return path

    def hops(self, processor_name: str, memory_name: str) -> int:
        """Number of interconnect hops (Figure 13/14 x-axis)."""
        return len(self.path(processor_name, memory_name))

    def nearest_cpu_memory(self, processor_name: str) -> MemoryRegion:
        """CPU memory region with the fewest hops from ``processor_name``.

        Used by the hybrid hash table's greedy spill (Figure 8, step 2)
        and the NUMA-recursive fallback of Section 5.3.
        """
        ranked = self._ranked_cpu_memories(processor_name)
        if not ranked:
            raise TopologyError("machine has no CPU memory")
        return ranked[0]

    def cpu_memories_by_distance(self, processor_name: str) -> List[MemoryRegion]:
        """All CPU memory regions ordered by hop distance (NUMA search)."""
        return list(self._ranked_cpu_memories(processor_name))

    def _ranked_cpu_memories(
        self, processor_name: str
    ) -> Tuple[MemoryRegion, ...]:
        """CPU memories by (hops, insertion order), once per topology."""
        ranked = self._cpu_memories.get(processor_name)
        if ranked is None:
            memories = [cpu.local_memory for cpu in self.cpus()]
            # A stable sort: equal hop counts keep insertion order.
            memories.sort(key=lambda memory: self.hops(processor_name, memory.name))
            ranked = self._cpu_memories[processor_name] = tuple(memories)
        return ranked

    def gpu_link(self, gpu_name: str) -> Interconnect:
        """The link that attaches a GPU to its host CPU."""
        gpu = self.processor(gpu_name)
        if gpu.kind is not ProcessorKind.GPU:
            raise TopologyError(f"{gpu_name} is not a GPU")
        host_memory = self.nearest_cpu_memory(gpu_name)
        path = self.path(gpu_name, host_memory.name)
        if not path:
            raise TopologyError(f"{gpu_name} has no link to a CPU")
        return path[0]

    @property
    def coherent_gpu_access(self) -> bool:
        """True when every GPU link is cache-coherent (NVLink machines)."""
        gpu_links = [self.gpu_link(gpu.name) for gpu in self.gpus()]
        return bool(gpu_links) and all(l.spec.cache_coherent for l in gpu_links)


# ---------------------------------------------------------------------------
# Canonical machines (Figure 4)
# ---------------------------------------------------------------------------


def ibm_ac922(gpus: int = 2, gpu_mesh: bool = False) -> Machine:
    """2x POWER9 + up to 4x V100-SXM2 over NVLink 2.0 (Figure 4a).

    GPUs alternate between the two sockets (the AC922 attaches up to
    three GPUs per CPU; the paper's machine has one per socket, the
    4-GPU variant two).  With two GPUs per socket, the paper notes the
    per-GPU NVLink bundle shrinks — two GPUs can saturate CPU memory
    bandwidth, so the model keeps a full bundle per GPU and lets the
    shared CPU memory become the contended resource.

    ``gpu_mesh`` adds direct GPU-to-GPU NVLink 2.0 connections between
    same-socket neighbours and across sockets — the point-to-point mesh
    of Section 6.3's multi-GPU strategy.  The paper's locality
    experiments (Figures 13/14) route GPU-to-GPU traffic through both
    CPUs, so the mesh is off by default.
    """
    if gpus not in (1, 2, 3, 4):
        raise TopologyError("ibm_ac922 supports 1 to 4 GPUs")
    machine = Machine(name="ibm-ac922")
    machine.add_cpu("cpu0", POWER9, "cpu0-mem")
    machine.add_cpu("cpu1", POWER9, "cpu1-mem")
    machine.connect("cpu0", "cpu1", XBUS)
    gpu_names = []
    for index in range(gpus):
        name = f"gpu{index}"
        machine.add_gpu(name, V100_SXM2, f"{name}-mem")
        machine.connect(name, f"cpu{index % 2}", NVLINK2)
        gpu_names.append(name)
    if gpu_mesh and gpus >= 2:
        for i in range(len(gpu_names)):
            for j in range(i + 1, len(gpu_names)):
                machine.connect(gpu_names[i], gpu_names[j], NVLINK2)
    return machine


def intel_xeon_v100() -> Machine:
    """2x Xeon Gold 6126 + V100-PCIE over PCI-e 3.0 (Figure 4b)."""
    machine = Machine(name="intel-xeon-v100")
    machine.add_cpu("cpu0", XEON_6126, "cpu0-mem")
    machine.add_cpu("cpu1", XEON_6126, "cpu1-mem")
    machine.connect("cpu0", "cpu1", UPI)
    machine.add_gpu("gpu0", V100_PCIE, "gpu0-mem")
    machine.connect("gpu0", "cpu0", PCIE3)
    return machine
