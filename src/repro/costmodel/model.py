"""The cost model: translates access profiles into phase times.

Semantics
---------

* Streams of one profile are concurrent.  Every stream deposits
  *occupancy* (busy seconds) on each resource it crosses; the phase
  takes as long as its most-occupied resource (bottleneck / roofline
  semantics), times the profile's makespan factor, plus fixed overheads.
  Two streams crossing the same link serialize on it; streams on
  disjoint resources overlap fully.
* Sequential streams are priced at measured streaming bandwidths (times
  the stream's ``bandwidth_factor`` for software-limited transfers).
* Random streams involve three capacities, each its own resource:

  - the **initiator** (``issue:<proc>``): MLP over end-to-end latency,
    scaled by a calibrated issue efficiency;
  - every **link** crossed: the Figure-3 random rate with the
    independent-access uplift, plus sector-granular wire bytes;
  - the **target memory**: its random rate, uplifted and multiplied by
    the DRAM concurrency (a DDR4 socket absorbs both its own cores' and
    the GPU's requests — this is what makes Het co-processing pay off).

* Atomics use the slower calibrated atomic rates (they serialize in
  memory controllers and the NVLink NPU); ``[contended]`` streams are
  further penalized (Figure 21b's Het build).
* Cache effects: the initiating processor's caches absorb a fraction of
  random accesses when the working set or the skew hot set fits; the
  V100 L2 is memory-side and never caches remote data (Figure 14).

For co-processing, :meth:`CostModel.occupancy_per_unit` exposes a
worker's per-tuple occupancy vector, which feeds the max-min fair
concurrent-rate solver in :mod:`repro.sim.resources`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.costmodel.access import AccessPattern, AccessProfile, Stream
from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hardware.cache import CacheModel
from repro.hardware.interconnect import Interconnect
from repro.hardware.memory import MemoryRegion
from repro.hardware.processor import Cpu, Gpu, Processor
from repro.hardware.topology import Machine
from repro.obs import INERT, Observability


@dataclass(frozen=True)
class PhaseCost:
    """Result of pricing one phase."""

    seconds: float
    bottleneck: str
    occupancy: Dict[str, float]
    label: str = ""

    def __str__(self) -> str:
        return f"PhaseCost({self.seconds:.4f}s, bottleneck={self.bottleneck})"


class CostModel:
    """Prices access profiles on one machine.

    Every cost model carries an :class:`~repro.obs.Observability` bundle
    (injectable for sharing across operators): :meth:`phase_cost` opens
    a span per priced phase on the deterministic sim-clock and deposits
    per-stream metrics — bytes per link, atomic ops, cache hit rates —
    so every priced stream is attributable after the fact.

    Each distinct stream is priced once: its occupancy is memoised on the
    (frozen, hashable) stream until the machine's topology changes.  The
    ingest table that :func:`repro.plan.ingest.ingest` answers from
    lives here too, under the same topology rule.
    """

    def __init__(
        self,
        machine: Machine,
        calibration: Calibration = DEFAULT_CALIBRATION,
        obs: Optional[Observability] = None,
    ) -> None:
        self.machine = machine
        self.calibration = calibration
        self.obs = obs if obs is not None else Observability.create()
        #: stream -> occupancy, and ingest arguments -> ``IngestSpec``;
        #: both valid while the machine's generation equals
        #: ``_priced_generation``.
        self._priced: Dict[Stream, Dict[str, float]] = {}
        self._ingested: Dict[Hashable, Any] = {}
        self._priced_generation = machine.generation

    def _topology_changed(self) -> None:
        """Drop everything derived from the previous topology."""
        self._priced.clear()
        self._ingested.clear()
        self._priced_generation = self.machine.generation

    def ingest_memo(self) -> Dict[Hashable, Any]:
        """The table :func:`repro.plan.ingest.ingest` answers from,
        emptied whenever the machine's topology changes."""
        if self._priced_generation != self.machine.generation:
            self._topology_changed()
        return self._ingested

    # ------------------------------------------------------------------
    # Primitive queries
    # ------------------------------------------------------------------
    def sequential_bandwidth(self, processor: str, memory: str) -> float:
        """End-to-end streaming bandwidth from processor to memory region."""
        region = self.machine.memory(memory)
        path = self.machine.path(processor, memory)
        bandwidth = region.spec.seq_bw
        for link in path:
            bandwidth = min(bandwidth, link.spec.seq_bw)
        return bandwidth

    def path_latency(self, processor: str, memory: str) -> float:
        """End-to-end access latency: memory plus every link crossed."""
        region = self.machine.memory(memory)
        path = self.machine.path(processor, memory)
        return region.spec.latency + sum(link.spec.latency for link in path)

    def issue_rate(self, processor: str, memory: str) -> float:
        """Random accesses/s the *initiator* can keep in flight."""
        proc = self.machine.processor(processor)
        kind = "gpu" if isinstance(proc, Gpu) else "cpu"
        efficiency = self.calibration.issue_efficiency.get(kind, 1.0)
        rate = proc.memory_parallelism() / self.path_latency(processor, memory)
        hops = len(self.machine.path(processor, memory))
        if hops > 1:
            rate *= self.calibration.per_hop_random_penalty ** (hops - 1)
        return rate * efficiency

    def memory_random_capacity(self, memory: str) -> float:
        """Random accesses/s the target memory absorbs across initiators."""
        region = self.machine.memory(memory)
        return (
            region.spec.random_access_rate
            * self.calibration.independent_factor(region.spec.name)
            * self.calibration.dram_concurrency.get(region.spec.name, 1.0)
        )

    def link_random_rate(self, link: Interconnect) -> float:
        """Independent random accesses/s one link instance sustains."""
        return link.spec.random_access_rate * self.calibration.independent_factor(
            link.spec.name
        )

    def random_access_rate(self, processor: str, memory: str) -> float:
        """Solo end-to-end random access rate (min of all capacities)."""
        rate = min(
            self.issue_rate(processor, memory),
            self.memory_random_capacity(memory),
        )
        for link in self.machine.path(processor, memory):
            rate = min(rate, self.link_random_rate(link))
        return rate

    def atomic_rate(
        self, processor: str, memory: str, contended: bool = False
    ) -> float:
        """Atomic updates/s from processor into memory.

        An atomic is at least as expensive as a plain random access (it
        is a read-modify-write), so the read path's rate is an upper
        bound; memory controllers and link protocol engines lower it
        further (the calibrated per-technology atomic rates).
        """
        region = self.machine.memory(memory)
        path = self.machine.path(processor, memory)
        rate = self.calibration.atomic_rate_for(region.spec.name)
        for link in path:
            rate = min(rate, self.calibration.atomic_rate_for(link.spec.name))
        if len(path) > 1:
            rate *= self.calibration.per_hop_random_penalty ** (len(path) - 1)
        rate = min(rate, self.random_access_rate(processor, memory))
        if contended:
            rate *= self.calibration.shared_build_contention
        return rate

    # ------------------------------------------------------------------
    # Cache resolution
    # ------------------------------------------------------------------
    def _serving_cache(
        self,
        proc: Processor,
        region: MemoryRegion,
        path: List[Interconnect],
        skewed: bool,
    ) -> Tuple[Optional[CacheModel], float, str]:
        """Cache that may absorb random accesses, its rate, and its name.

        GPUs: local data is served by the memory-side L2; remote data is
        only cacheable over a coherent link, in the L1, and only with a
        small effective capacity (Figure 14 workload B vs. Figure 19).

        CPUs: LLC-resident working sets are served at the core-bound
        random rate (no faster than DRAM probes — Figure 13); skewed hot
        sets small enough for the per-core L1s are served fast.
        """
        remote = region.owner != proc.name
        if isinstance(proc, Gpu):
            if not remote:
                return proc.l2, self.calibration.l2_random_rate, f"{proc.name}:l2"
            coherent = all(link.spec.cache_coherent for link in path)
            if coherent:
                l1 = CacheModel(
                    proc.l1.spec,
                    capacity_override=int(self.calibration.l1_remote_capacity),
                )
                return l1, self.calibration.l1_random_rate, f"{proc.name}:l1"
            if skewed:
                # Non-coherent links get partial relief from Unified
                # Memory: hot pages migrate into GPU memory, but fault
                # handling bounds the service rate (Figure 19, PCI-e).
                um = CacheModel(
                    proc.l1.spec,
                    capacity_override=int(self.calibration.l1_remote_capacity),
                )
                return um, self.calibration.um_hot_page_rate, f"{proc.name}:um"
            return None, 0.0, ""
        if isinstance(proc, Cpu):
            if skewed:
                l1 = CacheModel(
                    proc.llc.spec,
                    capacity_override=int(self.calibration.cpu_l1_capacity),
                )
                return l1, self.calibration.cpu_l1_random_rate, f"{proc.name}:l1"
            return proc.llc, self.calibration.llc_random_rate, f"{proc.name}:llc"
        return None, 0.0, ""

    def cache_hit_rate(self, stream: Stream) -> Tuple[float, float, str]:
        """(hit_rate, cache_rate, cache_resource) for a random stream."""
        proc = self.machine.processor(stream.processor)
        region = self.machine.memory(stream.memory)
        path = self.machine.path(stream.processor, stream.memory)
        cache, rate, name = self._serving_cache(
            proc, region, path, skewed=stream.hot_set is not None
        )
        if cache is None or stream.working_set_bytes <= 0:
            return 0.0, rate, name
        remote = region.owner != proc.name
        # Without a skew profile, only whole-working-set fits count as
        # cacheable; a uniformly probed over-capacity set thrashes.
        if stream.hot_set is None and stream.working_set_bytes > cache.capacity:
            return 0.0, rate, name
        hit = cache.hit_rate(
            stream.working_set_bytes,
            data_is_remote=remote,
            hot_set=stream.hot_set,
            entry_bytes=max(stream.access_bytes, 1.0),
        )
        return hit, rate, name

    # ------------------------------------------------------------------
    # Stream pricing
    # ------------------------------------------------------------------
    def stream_occupancy(self, stream: Stream) -> Dict[str, float]:
        """Busy-seconds deposited by one stream on each resource."""
        return dict(self._stream_occupancy(stream))

    def _stream_occupancy(self, stream: Stream) -> Dict[str, float]:
        """The memoised :meth:`stream_occupancy`; callers must not
        mutate the returned dict."""
        if self._priced_generation != self.machine.generation:
            self._topology_changed()
        occupancy = self._priced.get(stream)
        if occupancy is None:
            if stream.pattern is AccessPattern.SEQUENTIAL:
                occupancy = self._sequential_occupancy(stream)
            else:
                occupancy = self._random_occupancy(stream)
            self._priced[stream] = occupancy
        return occupancy

    def _sequential_occupancy(self, stream: Stream) -> Dict[str, float]:
        region = self.machine.memory(stream.memory)
        path = self.machine.path(stream.processor, stream.memory)
        factor = stream.bandwidth_factor
        occupancy: Dict[str, float] = {}
        occupancy[f"mem:{region.name}"] = stream.total_bytes / (
            region.spec.seq_bw * factor
        )
        for link in path:
            occupancy[f"link:{link.name}"] = stream.total_bytes / (
                link.spec.seq_bw * factor
            )
        return occupancy

    def _random_occupancy(self, stream: Stream) -> Dict[str, float]:
        region = self.machine.memory(stream.memory)
        path = self.machine.path(stream.processor, stream.memory)
        contended = "[contended]" in stream.label
        occupancy: Dict[str, float] = defaultdict(float)

        if stream.pattern is AccessPattern.ATOMIC:
            rate = self.atomic_rate(stream.processor, stream.memory, contended)
            if stream.accesses > 0:
                occupancy[f"mem:{region.name}"] = stream.accesses / rate
                sector = max(
                    stream.access_bytes, self.calibration.random_sector_bytes
                )
                for link in path:
                    wire = stream.accesses * (sector + link.spec.header_bytes)
                    occupancy[f"link:{link.name}"] = max(
                        stream.accesses / rate, wire / link.spec.seq_bw
                    )
            return dict(occupancy)

        hit, cache_rate, cache_name = self.cache_hit_rate(stream)
        misses = stream.accesses * (1.0 - hit)
        hits = stream.accesses * hit
        sector = max(stream.access_bytes, self.calibration.random_sector_bytes)
        if misses > 0:
            occupancy[f"issue:{stream.processor}"] = misses / self.issue_rate(
                stream.processor, stream.memory
            )
            occupancy[f"mem:{region.name}"] = max(
                misses / self.memory_random_capacity(stream.memory),
                misses * sector / region.spec.seq_bw,
            )
            for link in path:
                wire = misses * (sector + link.spec.header_bytes)
                occupancy[f"link:{link.name}"] = max(
                    misses / self.link_random_rate(link),
                    wire / link.spec.seq_bw,
                )
        if hits > 0 and cache_name:
            occupancy[f"cache:{cache_name}"] += hits / cache_rate
        return dict(occupancy)

    # ------------------------------------------------------------------
    # Phase pricing
    # ------------------------------------------------------------------
    def profile_occupancy(self, profile: AccessProfile) -> Dict[str, float]:
        """Summed occupancy of a whole profile, including compute.

        Compute time goes to the profile's explicit ``processor`` when
        set, else is split across the processors its streams name.  A
        compute-only profile without either is rejected: it used to lose
        its compute time silently and price to zero.
        """
        occupancy: Dict[str, float] = {}
        for stream in profile.streams:
            for resource, busy in self._stream_occupancy(stream).items():
                occupancy[resource] = occupancy.get(resource, 0.0) + busy
        if profile.compute_tuples > 0:
            if profile.processor is not None:
                processors = [profile.processor]
            else:
                processors = sorted({s.processor for s in profile.streams})
            if not processors:
                raise ValueError(
                    f"profile {profile.label!r} has compute_tuples="
                    f"{profile.compute_tuples} but no streams and no "
                    "explicit processor; set AccessProfile.processor so "
                    "the compute time is attributable"
                )
            for name in processors:
                proc = self.machine.processor(name)
                resource = f"compute:{name}"
                occupancy[resource] = occupancy.get(resource, 0.0) + (
                    profile.compute_tuples / len(processors)
                ) / proc.tuple_throughput()
        return occupancy

    def occupancy_per_unit(
        self, profile: AccessProfile, units: float
    ) -> Dict[str, float]:
        """Per-work-unit occupancy vector (for the concurrency solver)."""
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        return {
            resource: busy / units
            for resource, busy in self.profile_occupancy(profile).items()
        }

    def phase_cost(self, profile: AccessProfile) -> PhaseCost:
        """Price one phase: bottleneck over all resources plus overheads."""
        occupancy = self.profile_occupancy(profile)
        if not occupancy:
            cost = PhaseCost(
                seconds=profile.fixed_overhead,
                bottleneck="(none)",
                occupancy={},
                label=profile.label,
            )
            self._record_phase(profile, cost)
            return cost
        bottleneck = max(occupancy, key=lambda r: occupancy[r])
        seconds = occupancy[bottleneck] * (
            1.0 + self.calibration.join_pipeline_overhead
        )
        seconds *= profile.makespan_factor
        seconds += profile.fixed_overhead
        cost = PhaseCost(
            seconds=seconds,
            bottleneck=bottleneck,
            occupancy=occupancy,
            label=profile.label,
        )
        self._record_phase(profile, cost)
        return cost

    def phases_cost(self, profiles: List[AccessProfile]) -> List[PhaseCost]:
        """Price several sequential phases (build, then probe, ...)."""
        return [self.phase_cost(p) for p in profiles]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _phase_worker(self, profile: AccessProfile) -> str:
        if profile.processor is not None:
            return profile.processor
        for stream in profile.streams:
            return stream.processor
        return "cost-model"

    def _record_phase(self, profile: AccessProfile, cost: PhaseCost) -> None:
        """Span + metrics for one priced phase (sim-clock seconds)."""
        with self.obs.tracer.span(
            f"price[{profile.label or 'phase'}]",
            worker=self._phase_worker(profile),
            units=profile.compute_tuples,
            bottleneck=cost.bottleneck,
        ) as span:
            span.advance(cost.seconds)
        self.record_profile_metrics(profile)

    def link_wire_bytes(self, stream: Stream) -> Dict[str, float]:
        """Wire bytes ``{link name: bytes}`` one stream puts on each link.

        Sequential streams move their payload; random/atomic streams
        move sector-granular lines plus per-access protocol headers —
        the same accounting the pricing path uses.
        """
        path = self.machine.path(stream.processor, stream.memory)
        if stream.pattern is AccessPattern.SEQUENTIAL:
            return {link.name: stream.total_bytes for link in path}
        sector = max(stream.access_bytes, self.calibration.random_sector_bytes)
        return {
            link.name: stream.accesses * (sector + link.spec.header_bytes)
            for link in path
        }

    def record_profile_metrics(self, profile: AccessProfile) -> None:
        """Deposit one profile's per-stream attribution into the registry.

        Called once per *priced* phase (never from the per-unit solver
        path, which re-evaluates profiles many times).  On the inert
        bundle nothing would be kept, so the attribution is not computed.
        """
        if self.obs is INERT:
            return
        metrics = self.obs.metrics
        phase = profile.label or "phase"
        for resource, busy in self.profile_occupancy(profile).items():
            metrics.counter(
                "resource_busy_seconds_total", resource=resource
            ).inc(busy)
        for stream in profile.streams:
            for link_name, wire in self.link_wire_bytes(stream).items():
                metrics.counter(
                    "link_bytes_total",
                    link=link_name,
                    processor=stream.processor,
                ).inc(wire)
            metrics.counter(
                "stream_payload_bytes_total",
                processor=stream.processor,
                memory=stream.memory,
                pattern=stream.pattern.value,
            ).inc(stream.payload_bytes)
            if stream.pattern is AccessPattern.ATOMIC:
                metrics.counter(
                    "atomic_ops_total",
                    processor=stream.processor,
                    memory=stream.memory,
                ).inc(stream.accesses)
            elif stream.pattern is AccessPattern.RANDOM:
                hit, _rate, cache_name = self.cache_hit_rate(stream)
                if cache_name:
                    metrics.gauge(
                        "cache_hit_rate", cache=cache_name, phase=phase
                    ).set(hit)
                    metrics.counter(
                        "cache_hits_total", cache=cache_name
                    ).inc(stream.accesses * hit)
        if profile.compute_tuples > 0:
            metrics.counter(
                "compute_tuples_total", processor=self._phase_worker(profile)
            ).inc(profile.compute_tuples)
