"""Access patterns, streams, and access profiles.

A *stream* is the unit of traffic an operator reports to the cost model:
"processor P makes N {sequential | random | atomic} accesses of S bytes
each against memory region M".  Operators never talk about links — the
cost model routes streams over the topology.

Streams within one :class:`AccessProfile` are concurrent: a GPU probe
kernel simultaneously streams the outer relation over the interconnect
and issues random hash-table reads; the phase is as slow as the slowest
resource, not the sum (GPUs hide latency; Section 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.hardware.cache import HotSetProfile


class AccessPattern(enum.Enum):
    """Traffic classes priced differently by the cost model."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"
    ATOMIC = "atomic"


@dataclass(frozen=True)
class Stream:
    """One homogeneous traffic stream of an operator phase.

    Attributes:
        processor: name of the initiating processor.
        memory: name of the target memory region.
        pattern: sequential scan, independent random accesses, or atomics.
        total_bytes: payload bytes moved (sequential streams).
        accesses: number of accesses (random/atomic streams).
        access_bytes: payload bytes per access (random/atomic streams).
        working_set_bytes: size of the randomly-accessed structure, used
            for cache-fit estimation (e.g. the hash table size).
        hot_set: optional skew profile of the random accesses (Figure 19).
        bandwidth_factor: effective-bandwidth multiplier for sequential
            streams, used by transfer methods whose ingest rate is below
            the raw route bandwidth (MMIO, staging, UM; Section 4).
        label: human-readable tag for timelines and debugging.

    The cost model memoises prices on streams, so each stream hashes its
    fields once, at construction; the hash is a plain attribute, not a
    field, and stays out of ``fields()``, ``repr`` and ``==``.
    """

    processor: str
    memory: str
    pattern: AccessPattern
    total_bytes: float = 0.0
    accesses: float = 0.0
    access_bytes: float = 0.0
    working_set_bytes: float = 0.0
    hot_set: Optional[HotSetProfile] = None
    bandwidth_factor: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.pattern is AccessPattern.SEQUENTIAL:
            if self.total_bytes < 0:
                raise ValueError("sequential stream needs non-negative bytes")
        else:
            if self.accesses < 0 or self.access_bytes < 0:
                raise ValueError("random/atomic stream needs non-negative accesses")
        if self.bandwidth_factor <= 0:
            raise ValueError(
                f"bandwidth factor must be positive, got {self.bandwidth_factor}"
            )
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between
        # processes, so a pickled ``_hash`` would be stale.
        return (type(self), self._values())

    def _values(self) -> tuple:
        """The field values in declaration order (what ``==`` compares)."""
        return (
            self.processor,
            self.memory,
            self.pattern,
            self.total_bytes,
            self.accesses,
            self.access_bytes,
            self.working_set_bytes,
            self.hot_set,
            self.bandwidth_factor,
            self.label,
        )

    @property
    def payload_bytes(self) -> float:
        """Useful bytes this stream moves (excluding headers/sectors)."""
        if self.pattern is AccessPattern.SEQUENTIAL:
            return self.total_bytes
        return self.accesses * self.access_bytes

    def scaled(self, factor: float) -> "Stream":
        """A copy with all volumes multiplied by ``factor``.

        Used to translate traffic counted at execution scale to the
        modeled (paper-scale) cardinality; all operators in this library
        generate traffic linear in tuple count.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return replace(
            self,
            total_bytes=self.total_bytes * factor,
            accesses=self.accesses * factor,
            working_set_bytes=self.working_set_bytes,
        )


def seq_stream(
    processor: str,
    memory: str,
    total_bytes: float,
    label: str = "",
    bandwidth_factor: float = 1.0,
) -> Stream:
    """Convenience constructor for a sequential scan stream."""
    return Stream(
        processor=processor,
        memory=memory,
        pattern=AccessPattern.SEQUENTIAL,
        total_bytes=total_bytes,
        bandwidth_factor=bandwidth_factor,
        label=label,
    )


def random_stream(
    processor: str,
    memory: str,
    accesses: float,
    access_bytes: float,
    working_set_bytes: float = 0.0,
    hot_set: Optional[HotSetProfile] = None,
    label: str = "",
) -> Stream:
    """Convenience constructor for an independent random-access stream."""
    return Stream(
        processor=processor,
        memory=memory,
        pattern=AccessPattern.RANDOM,
        accesses=accesses,
        access_bytes=access_bytes,
        working_set_bytes=working_set_bytes,
        hot_set=hot_set,
        label=label,
    )


def atomic_stream(
    processor: str,
    memory: str,
    accesses: float,
    access_bytes: float,
    working_set_bytes: float = 0.0,
    contended: bool = False,
    label: str = "",
) -> Stream:
    """Convenience constructor for an atomic update stream.

    ``contended`` marks streams where several processors update the same
    structure concurrently (the Het build phase); the cost model applies
    the coherence-contention penalty then.
    """
    if contended:
        label = (label + " [contended]").strip()
    return Stream(
        processor=processor,
        memory=memory,
        pattern=AccessPattern.ATOMIC,
        accesses=accesses,
        access_bytes=access_bytes,
        working_set_bytes=working_set_bytes,
        label=label,
    )


@dataclass
class AccessProfile:
    """All concurrent traffic of one operator phase, plus fixed overheads.

    ``makespan_factor`` multiplies the bottleneck time; push-based
    transfer pipelines use it for their fill/drain overhead.

    ``processor`` names the processor executing the phase's *compute*
    work.  When set, all ``compute_tuples`` time is attributed to it;
    when unset, compute is split across the processors appearing in the
    streams.  A profile with compute but neither streams nor an explicit
    processor is unpriceable and the cost model rejects it — this used
    to silently price to zero.
    """

    streams: List[Stream] = field(default_factory=list)
    fixed_overhead: float = 0.0
    compute_tuples: float = 0.0
    makespan_factor: float = 1.0
    label: str = ""
    processor: Optional[str] = None

    def add(self, stream: Stream) -> "AccessProfile":
        self.streams.append(stream)
        return self

    def extend(self, streams: List[Stream]) -> "AccessProfile":
        self.streams.extend(streams)
        return self

    def scaled(self, factor: float) -> "AccessProfile":
        """Profile with all stream volumes and compute scaled linearly."""
        return AccessProfile(
            streams=[s.scaled(factor) for s in self.streams],
            fixed_overhead=self.fixed_overhead,
            compute_tuples=self.compute_tuples * factor,
            makespan_factor=self.makespan_factor,
            label=self.label,
            processor=self.processor,
        )

    @property
    def total_payload_bytes(self) -> float:
        return sum(s.payload_bytes for s in self.streams)
