"""Shared ingest glue: streams + overlap for reading operator inputs.

Every operator that reads relation/column bytes used to hand-roll the
same transfer logic: local data (or CPU execution) streams directly; a
GPU reading CPU memory goes through the configured Table-1 transfer
method, adding the method's side streams, landing traffic, and — for
push methods — the chunked pipeline overlap.  This module is the single
copy; operators call :func:`ingest` while compiling their plans.

The optimizer compiles ~8 hash-table placements per transfer method,
and they all read the same R and S bytes, so :func:`ingest` answers a
repeated read from a table on the cost model instead of re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.costmodel.access import Stream, seq_stream
from repro.costmodel.model import CostModel
from repro.faults.runtime import active_plan
from repro.hardware.memory import MemoryKind
from repro.hardware.processor import Gpu
from repro.plan.spec import Chunked
from repro.transfer.methods import get_method


@dataclass(frozen=True)
class IngestSpec:
    """Streams for one input read, plus its chunked-overlap attribute.

    ``chunked`` is set for push-based transfer methods (the software
    copy pipeline overlaps transfer with compute); pull methods access
    data at byte/page granularity with no extra overlap structure.
    """

    streams: Tuple[Stream, ...]
    chunked: Optional[Chunked] = None


def ingest(
    cost_model: CostModel,
    transfer_method: str,
    processor: str,
    location: str,
    nbytes: float,
    label: str,
    kind: Optional[MemoryKind] = None,
) -> IngestSpec:
    """Streams + overlap for ``processor`` reading ``nbytes`` from
    ``location``.

    Local data (or CPU execution) reads directly; a GPU reading CPU
    memory goes through the configured transfer method, which may route
    at reduced software bandwidth, occupy helper resources (staging
    threads), and land data in GPU memory for a second local pass.

    The answer is a function of the machine's topology, the cost model's
    calibration and these arguments alone, never of what is allocated
    where, so it is kept in :meth:`CostModel.ingest_memo` (dropped on a
    topology change) and shared by every later call with the same
    arguments.  Under an installed fault plan the table is bypassed: a
    ``DegradeLink`` rule records a fault on every bandwidth query, so
    each call must ask the plan again.
    """
    args = (transfer_method, processor, location, nbytes, label, kind)
    if active_plan() is not None:
        return _ingest(cost_model, *args)
    memo = cost_model.ingest_memo()
    spec = memo.get(args)
    if spec is None:
        spec = memo[args] = _ingest(cost_model, *args)
    return spec


def _ingest(
    cost_model: CostModel,
    transfer_method: str,
    processor: str,
    location: str,
    nbytes: float,
    label: str,
    kind: Optional[MemoryKind],
) -> IngestSpec:
    """:func:`ingest` without its table."""
    machine = cost_model.machine
    proc = machine.processor(processor)
    local = machine.memory(location).owner == processor
    if local or not isinstance(proc, Gpu):
        return IngestSpec(
            streams=(seq_stream(processor, location, nbytes, label),)
        )
    method = get_method(transfer_method)
    method.check_supported(machine, processor, location, kind=kind)
    ingest_bw = method.effective_ingest_bandwidth(cost_model, processor, location)
    route_bw = cost_model.sequential_bandwidth(processor, location)
    streams = [
        seq_stream(
            processor,
            location,
            nbytes,
            label=f"{label} [{method.name}]",
            bandwidth_factor=min(1.0, ingest_bw / route_bw),
        )
    ]
    streams.extend(method.side_streams(machine, processor, location, nbytes))
    if method.lands_in_gpu_memory():
        landing = proc.local_memory.name
        streams.append(
            seq_stream(processor, landing, nbytes, label=f"{label} landing write")
        )
        streams.append(
            seq_stream(processor, landing, nbytes, label=f"{label} kernel read")
        )
    chunked = None
    if method.semantics == "push":
        chunked = Chunked(chunks=cost_model.calibration.pipeline_chunks)
    return IngestSpec(streams=tuple(streams), chunked=chunked)
