"""The lowering compiler: logical plan + physical choices -> ``Plan``.

Every join variant of the paper is one algorithm — build a hash table,
stream a relation past it — differing only in *who* works, *where* the
table lives and *how* the inputs are ingested.  This module prices it
that way:

* two profile constructors, :func:`build_profile` and
  :func:`probe_profile`, parametrised by (worker, source relation +
  ingest method, table region -> fraction map, accesses per tuple,
  share of the input).  Every read of relation/column bytes goes
  through one place (the shared :func:`repro.plan.ingest` glue for
  Table-1 transfer methods, a direct coherent read otherwise) and
  every hash-table access through :func:`table_streams`;
* thin per-shape assemblers that only choose the worker set, the
  region map and the phase kind: single-processor NOPA is a one-worker
  set over a :class:`HashTablePlacement`; Het a mixed set on one shared
  region; GPU+Het and replicated multi-GPU a set with per-worker local
  copies plus the broadcast surcharge; interleaved multi-GPU a set over
  a multi-region placement with pool dispatch; a star join a fold over
  its dimensions; the radix baseline a CPU-only physical alternative of
  the same logical join; the Q6 scan a probe pipeline with no table.

The operator facades state a logical query plus the one
:class:`PhysicalConfig` matching their constructor knobs, gather
measured statistics from their functional execution, and call
:func:`compile_query`; the optimizer calls the same compiler with
*estimated* statistics to price candidates it never executes.  Either
way the plan is priced by the one :class:`repro.plan.PlanExecutor`.

Stream construction order and float expression order are load-bearing:
the golden-equivalence harness (``tests/plan/test_golden_equivalence.py``)
and the committed ``baselines/`` pin every priced number bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.costmodel.access import (
    AccessProfile,
    Stream,
    atomic_stream,
    random_stream,
    seq_stream,
)
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.hashtable.placement import HashTablePlacement
from repro.data.relation import Relation
from repro.hardware.cache import HotSetProfile
from repro.hardware.processor import Cpu, Gpu
from repro.hardware.topology import Machine
from repro.logical.algebra import (
    Aggregate,
    Filter,
    HashJoin,
    LogicalError,
    LogicalNode,
    Predicate,
    Project,
    Query,
    Scan,
)
from repro.logical.stats import JoinStats, ScanStats, StarStats
from repro.memory.allocator import OutOfMemoryError
from repro.plan import (
    Chunked,
    MorselWorker,
    Plan,
    Surcharge,
    WorkerLoad,
    concurrent_phase,
    fixed_phase,
    ingest,
    morsel_phase,
    priced_phase,
)
from repro.transfer.methods import TRANSFER_METHODS
from repro.utils.units import GIB

#: calibrated accounting: a GPU insert is one 16-byte CAS; a CPU
#: insert is a compare-exchange plus a store (two accesses).
GPU_BUILD_ACCESSES = 1.0
CPU_BUILD_ACCESSES = 2.0

#: execution strategies the physical layer understands.
STRATEGIES = ("single", "het", "gpu+het", "multi-gpu", "radix")

#: strategies that run on ``PhysicalConfig.processor`` alone; the rest
#: cooperate over ``PhysicalConfig.workers``.
_SOLO_STRATEGIES = ("single", "radix")


# ----------------------------------------------------------------------
# Physical configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhysicalConfig:
    """One point in the physical search space.

    The optimizer enumerates these; the facades construct the single
    point matching their constructor knobs.  Fields that do not apply
    to a shape (e.g. ``variant`` for joins) are ignored by lowering.
    """

    #: "single" (one processor), "het" (shared table, cooperative
    #: morsel probe), "gpu+het" (build once, broadcast, probe
    #: everywhere) — the Section 6 strategies; "multi-gpu" (Section
    #: 6.3: GPU+Het's replicated build, or an interleaved table when a
    #: ``placement`` is given, with a pool-dispatched probe); "radix"
    #: (the partitioned PRA/PRO CPU baseline of Section 7.1).
    strategy: str = "single"
    #: executing processor for the single and radix strategies.
    processor: str = "gpu0"
    #: cooperating processors for the other strategies / star shapes.
    workers: Tuple[str, ...] = ()
    #: Table-1 transfer method for GPU reads of CPU-memory inputs.
    transfer_method: str = "coherence"
    #: resolved hash-table placement: required by the single strategy;
    #: for multi-gpu, the interleaved region fractions (None replicates
    #: the table to every GPU).
    placement: Optional[HashTablePlacement] = None
    #: hash-table layout: "soa" | "aos" (Figure 20).
    layout: str = "soa"
    #: probe output: "aggregate" | "materialize" (Section 5.1).
    output: str = "aggregate"
    #: scan kernel variant: "predicated" | "branching" (Section 7.2.4).
    variant: str = "predicated"
    #: dimension probe order for star shapes: indices into the query's
    #: as-written dimension list; empty keeps the written order.  The
    #: matching ``StarStats.survival_per_dim`` must be given in this
    #: *execution* order.
    join_order: Tuple[int, ...] = ()
    #: modeled morsel size of the simulated Het dispatcher.
    morsel_tuples: int = 1 << 22
    #: morsels per GPU batch (None auto-tunes).
    gpu_batch_morsels: Optional[int] = None
    #: host-execution tier: functional backend + worker count.
    #: Results and modeled costs are backend-invariant (the bit-identical
    #: equivalence suite pins that), so these do not affect pricing —
    #: the optimizer picks them with a deterministic host heuristic.
    backend: str = "serial"
    exec_workers: int = 0
    hash_scheme: str = "perfect"
    #: base label for plan/phase names ("nopa", "q6", ...).
    label: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise LogicalError(
                f"unknown strategy {self.strategy!r}; valid: "
                f"{', '.join(STRATEGIES)}"
            )
        if self.layout not in ("soa", "aos"):
            raise LogicalError(
                f"layout must be 'soa' or 'aos', got {self.layout!r}"
            )
        if self.output not in ("aggregate", "materialize"):
            raise LogicalError(
                f"output must be 'aggregate' or 'materialize', "
                f"got {self.output!r}"
            )
        if self.variant not in ("predicated", "branching"):
            raise LogicalError(
                f"variant must be 'predicated' or 'branching', "
                f"got {self.variant!r}"
            )
        if self.transfer_method not in TRANSFER_METHODS:
            raise LogicalError(
                f"unknown transfer method {self.transfer_method!r}; valid: "
                f"{', '.join(sorted(TRANSFER_METHODS))}"
            )
        if self.strategy not in _SOLO_STRATEGIES and not self.workers:
            raise LogicalError(
                f"strategy {self.strategy!r} needs a workers tuple"
            )

    def describe(self) -> str:
        """Compact one-line rendering (used by explain and manifests)."""
        if self.strategy in _SOLO_STRATEGIES:
            where = self.processor
        else:
            where = "+".join(self.workers)
        parts = [f"{self.strategy}@{where}", self.transfer_method]
        if self.placement is not None:
            parts.append(f"table={self.placement.label}")
        if self.join_order:
            parts.append("order=" + ">".join(str(i) for i in self.join_order))
        parts.append(f"backend={self.backend}x{max(1, self.exec_workers)}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Shape classification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanShape:
    """Aggregate over (projected, filtered) single-table scan — Q6."""

    scan: Scan
    predicates: Tuple[Predicate, ...]
    aggregate: Aggregate


@dataclass(frozen=True)
class JoinShape:
    """Aggregate over one hash join of two base tables — NOPA/Coop."""

    join: HashJoin
    build: Scan
    probe: Scan
    aggregate: Aggregate


@dataclass(frozen=True)
class StarShape:
    """Aggregate over a chain of joins sharing one fact table."""

    fact: Scan
    #: (dimension scan, fact key column, selectivity hint) in probe
    #: order — innermost join first.
    dimensions: Tuple[Tuple[Scan, str, Optional[float]], ...]
    aggregate: Aggregate


def classify(node: LogicalNode):
    """Map a logical tree onto one of the lowerable shapes."""
    if isinstance(node, Query):
        node = node.node
    if not isinstance(node, Aggregate):
        raise LogicalError(
            "lowerable plans end in an Aggregate (the paper's operators "
            f"all reduce); got {type(node).__name__}"
        )
    aggregate = node
    core = aggregate.child
    predicates: List[Predicate] = []
    while isinstance(core, (Filter, Project)):
        if isinstance(core, Filter):
            predicates.append(core.predicate)
        core = core.child
    predicates.reverse()  # application order: innermost filter first
    if isinstance(core, Scan):
        return ScanShape(core, tuple(predicates), aggregate)
    if not isinstance(core, HashJoin):
        raise LogicalError(
            f"cannot lower a {type(core).__name__} pipeline; supported "
            "shapes: scan/filter/aggregate, single hash join, star joins"
        )
    if predicates:
        raise LogicalError(
            "filters above a join are not lowerable yet; push them into "
            "selectivity hints"
        )
    # Walk the probe chain: HashJoin(build=dim, probe=HashJoin(...)).
    dimensions: List[Tuple[Scan, str, Optional[float]]] = []
    probe: LogicalNode = core
    while isinstance(probe, HashJoin):
        if not isinstance(probe.build, Scan):
            raise LogicalError(
                "join build sides must be base-table scans "
                f"(got {type(probe.build).__name__})"
            )
        dimensions.append((probe.build, probe.probe_key, probe.selectivity))
        probe = probe.probe
    if not isinstance(probe, Scan):
        raise LogicalError(
            f"join probe chain must end in a scan, got {type(probe).__name__}"
        )
    dimensions.reverse()  # innermost join probes the fact first
    if len(dimensions) == 1:
        return JoinShape(core, dimensions[0][0], probe, aggregate)
    return StarShape(probe, tuple(dimensions), aggregate)


# ----------------------------------------------------------------------
# Profile constructors
# ----------------------------------------------------------------------
def _is_gpu(machine: Machine, worker: str) -> bool:
    return isinstance(machine.processor(worker), Gpu)


def _join_work(cost_model: CostModel, worker: str) -> float:
    """Calibrated per-tuple join compute work on ``worker``."""
    kind = "gpu" if _is_gpu(cost_model.machine, worker) else "cpu"
    return cost_model.calibration.join_work_per_tuple[kind]


def _local_region(machine: Machine, worker: str) -> Dict[str, float]:
    """A table copy held entirely in ``worker``'s local memory."""
    return {machine.processor(worker).local_memory.name: 1.0}


def table_streams(
    worker: str,
    fractions: Mapping[str, float],
    table_bytes: float,
    accesses: float,
    access_bytes: float,
    label: str,
    atomic: bool = False,
    contended: bool = False,
    hot_set: Optional[HotSetProfile] = None,
) -> List[Stream]:
    """Hash-table traffic split across the table's region -> fraction
    map (uniform keys, Section 5.3's model)."""
    streams: List[Stream] = []
    for region, fraction in fractions.items():
        share = accesses * fraction
        if share <= 0:
            continue
        working_set = table_bytes * fraction
        if atomic:
            streams.append(
                atomic_stream(
                    worker,
                    region,
                    share,
                    access_bytes,
                    working_set_bytes=working_set,
                    contended=contended,
                    label=label,
                )
            )
        else:
            streams.append(
                random_stream(
                    worker,
                    region,
                    share,
                    access_bytes,
                    working_set_bytes=working_set,
                    hot_set=hot_set,
                    label=label,
                )
            )
    return streams


def _worker_profile(
    cost_model: CostModel,
    worker: str,
    source: Union[Relation, Scan],
    transfer_method: Optional[str],
    read_bytes: float,
    read_label: str,
    table_traffic: List[Stream],
    compute_tuples: float,
    label: str,
    launch: bool,
) -> Tuple[AccessProfile, Optional[Chunked]]:
    """One worker streaming ``read_bytes`` of ``source`` past its
    hash-table traffic.

    ``transfer_method`` names the Table-1 method a GPU uses to reach a
    CPU-memory input (through the shared :func:`repro.plan.ingest`
    glue, which may add side streams and chunked overlap); ``None`` is
    the cooperative strategies' direct coherent read.  ``launch`` adds
    the GPU kernel-launch latency of a stand-alone kernel.
    """
    chunked = None
    if transfer_method is None:
        streams = [seq_stream(worker, source.location, read_bytes, read_label)]
    else:
        spec = ingest(
            cost_model,
            transfer_method,
            worker,
            source.location,
            read_bytes,
            read_label,
            kind=source.kind,
        )
        streams, chunked = list(spec.streams), spec.chunked
    proc = cost_model.machine.processor(worker)
    overhead = (
        proc.kernel_launch_latency if launch and isinstance(proc, Gpu) else 0.0
    )
    profile = AccessProfile(
        streams=streams + table_traffic,
        fixed_overhead=overhead,
        compute_tuples=compute_tuples,
        label=label,
        processor=worker,
    )
    return profile, chunked


def build_profile(
    cost_model: CostModel,
    worker: str,
    relation: Relation,
    fractions: Mapping[str, float],
    table_bytes: float,
    entry_bytes: float,
    label: str,
    transfer_method: Optional[str] = None,
    insert_factor: float = 1.0,
    share: float = 1.0,
    contended: bool = False,
    read_label: str = "read R",
    launch: bool = False,
) -> Tuple[AccessProfile, Optional[Chunked]]:
    """``worker`` inserts its ``share`` of ``relation`` into the table.

    Every build in the library is this profile: read the input, issue
    one (GPU) or two (CPU) atomics per tuple — times the scheme's
    measured ``insert_factor`` — against the table's regions.
    """
    per_tuple = (
        GPU_BUILD_ACCESSES
        if _is_gpu(cost_model.machine, worker)
        else CPU_BUILD_ACCESSES
    ) * insert_factor
    tuples = relation.modeled_tuples
    return _worker_profile(
        cost_model,
        worker,
        relation,
        transfer_method,
        relation.modeled_bytes * share,
        read_label,
        table_streams(
            worker,
            fractions,
            table_bytes,
            tuples * per_tuple * share,
            entry_bytes,
            "ht insert",
            atomic=True,
            contended=contended,
        ),
        tuples * share * _join_work(cost_model, worker),
        label,
        launch,
    )


class ProbedTable(NamedTuple):
    """One hash table as a probing worker sees it."""

    #: region -> byte fraction of the copy this worker probes.
    fractions: Mapping[str, float]
    table_bytes: float
    #: lookups one pass over the whole probe input sends to the table.
    accesses: float
    access_bytes: float


def probe_profile(
    cost_model: CostModel,
    worker: str,
    source: Union[Relation, Scan],
    read_bytes: float,
    tuples: int,
    tables: Sequence[ProbedTable],
    label: str,
    transfer_method: Optional[str] = None,
    hot_set: Optional[HotSetProfile] = None,
    read_label: str = "read S",
    table_label: str = "ht probe",
    result_bytes: Optional[float] = None,
    launch: bool = False,
) -> Tuple[AccessProfile, Optional[Chunked]]:
    """``worker`` streams ``read_bytes`` of the ``tuples``-row probe
    input ``source`` past one table per join.

    ``result_bytes`` (materializing probes only) is written
    sequentially to the worker's local memory.
    """
    traffic: List[Stream] = []
    for table in tables:
        traffic += table_streams(
            worker,
            table.fractions,
            table.table_bytes,
            table.accesses,
            table.access_bytes,
            table_label,
            hot_set=hot_set,
        )
    if result_bytes is not None:
        local = cost_model.machine.processor(worker).local_memory.name
        traffic.append(
            seq_stream(worker, local, result_bytes, label="materialize result")
        )
    return _worker_profile(
        cost_model,
        worker,
        source,
        transfer_method,
        read_bytes,
        read_label,
        traffic,
        tuples * _join_work(cost_model, worker) * len(tables),
        label,
        launch,
    )


def _broadcast(
    cost_model: CostModel, builder: str, copies: int, table_bytes: float
) -> Tuple[float, str]:
    """(seconds, occupied resource) of the synchronous copy of a
    finished table to ``copies`` other workers' local memory, over the
    builder's link (GPU) or memory bus (CPU) — Figure 9b, step 2."""
    machine = cost_model.machine
    if _is_gpu(machine, builder):
        link = machine.gpu_link(builder)
        bandwidth, resource = link.spec.seq_bw, f"link:{link.name}"
    else:
        memory = machine.processor(builder).local_memory
        bandwidth, resource = memory.spec.seq_bw, f"mem:{memory.name}"
    copy_bw = bandwidth * cost_model.calibration.ht_copy_bandwidth_factor
    return copies * table_bytes / copy_bw, resource


# ----------------------------------------------------------------------
# Plan assemblers: choose the worker set, the region map, the phase kind
# ----------------------------------------------------------------------
def _single_join_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    r: Relation,
    s: Relation,
    stats: JoinStats,
) -> Plan:
    """One processor, one placed table: NOPA build -> probe."""
    if config.placement is None:
        raise LogicalError(
            "single-strategy join lowering needs a resolved placement"
        )
    processor = config.processor
    table = stats.table
    fractions = config.placement.fractions
    table_bytes = config.placement.total_bytes
    build, build_chunked = build_profile(
        cost_model,
        processor,
        r,
        fractions,
        table_bytes,
        table.entry_bytes,
        "build",
        transfer_method=config.transfer_method,
        insert_factor=table.insert_factor,
        launch=True,
    )
    # The probe always streams S's key column; the payload column is
    # loaded at line granularity only where matches occur.
    key_bytes = s.modeled_tuples * s.key_bytes
    value_bytes = s.modeled_tuples * s.payload_bytes * stats.lines_loaded
    key_lookups = table.lookup_probes * stats.model_factor
    value_reads = table.value_reads * stats.model_factor
    if config.layout == "aos":
        # Interleaved entries: the value rides in the same access as
        # the key, so matches add no extra table traffic — but every
        # probe moves the full entry.
        accesses, access_bytes = key_lookups, float(table.entry_bytes)
    else:
        accesses = key_lookups + value_reads
        access_bytes = float(table.key_itemsize)
    result_bytes = None
    if config.output == "materialize":
        # Result tuples are <key, s payload, r payload>.
        result_bytes = value_reads * (
            s.key_bytes + s.payload_bytes + table.value_itemsize
        )
    probe, probe_chunked = probe_profile(
        cost_model,
        processor,
        s,
        key_bytes + value_bytes,
        s.modeled_tuples,
        [ProbedTable(fractions, table_bytes, accesses, access_bytes)],
        "probe",
        transfer_method=config.transfer_method,
        hot_set=stats.hot_set,
        result_bytes=result_bytes,
        launch=True,
    )
    return Plan(
        [
            priced_phase(
                "build",
                build,
                chunked=build_chunked,
                claims=(processor,),
                span_worker=processor,
                span_units=float(r.modeled_tuples),
            ),
            priced_phase(
                "probe",
                probe,
                deps=("build",),
                chunked=probe_chunked,
                claims=(processor,),
                span_worker=processor,
                span_units=float(s.modeled_tuples),
                annotations={"matches": stats.matches},
            ),
        ],
        label=config.label or "nopa",
    )


def _shared_table_region(machine: Machine, workers: Tuple[str, ...]) -> str:
    """Het: the shared table lives in the CPU memory nearest the GPU.

    "We avoid our hybrid hash table optimization and store the hash
    table in CPU memory ... we avoid slowing down CPU processing
    through remote GPU memory accesses" (Section 6.2).
    """
    gpus = [w for w in workers if _is_gpu(machine, w)]
    anchor = gpus[0] if gpus else workers[0]
    return machine.nearest_cpu_memory(anchor).name


def _coop_join_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    r: Relation,
    s: Relation,
    stats: JoinStats,
) -> Plan:
    """Several workers, one logical table: Het, GPU+Het, multi-GPU.

    The strategies differ only in where each worker sees the table
    (one shared region / a private local copy / pages interleaved over
    every GPU), in who builds it (everyone, or one GPU followed by a
    broadcast), and in how the probe input is dispatched (morsel DES
    for the Section-6 strategies, pool mode across GPUs).
    """
    machine = cost_model.machine
    calibration = cost_model.calibration
    workers = config.workers
    strategy = config.strategy
    table = stats.table
    table_bytes = table.modeled_bytes
    multi_gpu = strategy == "multi-gpu"
    interleaved = config.placement if multi_gpu else None
    span_attrs = None if multi_gpu else {"strategy": strategy}
    build_units = float(r.modeled_tuples)

    regions: Dict[str, Mapping[str, float]]
    if strategy == "het" or interleaved is not None:
        # Everyone builds into the one table: Het workers race for the
        # whole input with contended atomics; interleaved GPUs each
        # take an equal slice.
        fractions = (
            interleaved.fractions
            if interleaved is not None
            else {_shared_table_region(machine, workers): 1.0}
        )
        regions = {worker: fractions for worker in workers}
        share = 1.0 / len(workers) if interleaved is not None else 1.0
        contended = strategy == "het" and len(workers) > 1
        build_spec = concurrent_phase(
            "build",
            {
                worker: WorkerLoad(
                    build_profile(
                        cost_model,
                        worker,
                        r,
                        fractions,
                        table_bytes,
                        table.entry_bytes,
                        f"build[{worker}]",
                        share=share,
                        contended=contended,
                    )[0],
                    build_units * share,
                )
                for worker in workers
            },
            shared_units=build_units,
            claims=workers,
            span_worker=",".join(workers),
            span_units=build_units,
            span_attrs=span_attrs,
        )
    else:
        # One GPU builds locally, then broadcasts the table.  Every
        # worker holds a private copy, so the table must fit the
        # smallest GPU memory (the "small build-side relations"
        # special case of Section 6.2).
        gpus = [w for w in workers if _is_gpu(machine, w)]
        if not gpus:
            raise LogicalError(f"{strategy} requires at least one GPU worker")
        for worker in gpus:
            capacity = machine.processor(worker).local_memory.capacity
            if table_bytes > capacity:
                raise OutOfMemoryError(
                    f"{strategy} replicates the {table_bytes}-byte hash "
                    f"table to every processor, but it exceeds {worker}'s "
                    "memory; use the Het strategy for large build sides"
                )
        builder = gpus[0]
        regions = {worker: _local_region(machine, worker) for worker in workers}
        profile, _ = build_profile(
            cost_model,
            builder,
            r,
            regions[builder],
            table_bytes,
            table.entry_bytes,
            "build[replicated]" if multi_gpu else f"build[{builder}]",
        )
        copies = {region for w in workers if w != builder for region in regions[w]}
        surcharges: Tuple[Surcharge, ...] = ()
        if copies:
            seconds, resource = _broadcast(
                cost_model, builder, len(copies), table_bytes
            )
            surcharges = (Surcharge(seconds, resource, "ht broadcast"),)
        build_spec = priced_phase(
            "build",
            profile,
            surcharges=surcharges,
            claims=workers,
            span_worker=",".join(workers),
            span_units=build_units,
            span_attrs=span_attrs,
        )

    probe_units = float(s.modeled_tuples)
    read_bytes = s.modeled_tuples * (
        s.key_bytes + s.payload_bytes * stats.lines_loaded
    )
    accesses = s.modeled_tuples * table.accesses_per_lookup
    loads = {
        worker: WorkerLoad(
            probe_profile(
                cost_model,
                worker,
                s,
                read_bytes,
                s.modeled_tuples,
                [
                    ProbedTable(
                        regions[worker],
                        table_bytes,
                        accesses,
                        table.key_itemsize,
                    )
                ],
                f"probe[{worker}]",
                hot_set=stats.hot_set,
            )[0],
            probe_units,
        )
        for worker in workers
    }
    if multi_gpu:
        probe_spec = concurrent_phase(
            "probe",
            loads,
            shared_units=probe_units,
            deps=("build",),
            claims=workers,
            span_units=probe_units,
        )
        placement = "replicated" if interleaved is None else "interleaved"
        return Plan([build_spec, probe_spec], label=f"multigpu[{placement}]")
    morsel_workers = {
        worker: (
            MorselWorker(
                dispatch_latency=calibration.gpu_batch_dispatch_latency,
                batch_morsels=config.gpu_batch_morsels,
            )
            if _is_gpu(machine, worker)
            else MorselWorker(
                dispatch_latency=calibration.cpu_morsel_dispatch_latency,
                batch_morsels=1,
            )
        )
        for worker in workers
    }
    probe_spec = morsel_phase(
        "probe",
        loads,
        shared_units=probe_units,
        morsel_tuples=config.morsel_tuples,
        morsel_workers=morsel_workers,
        deps=("build",),
        claims=workers,
        span_worker=",".join(workers),
        span_units=probe_units,
        span_attrs=span_attrs,
        annotations={"matches": stats.matches},
    )
    return Plan([build_spec, probe_spec], label=f"coop[{strategy}]")


def _radix_join_plan(
    cost_model: CostModel, config: PhysicalConfig, r: Relation, s: Relation
) -> Plan:
    """The PRA/PRO CPU baseline: partition both inputs, join in cache.

    The partition pass is one read+write round trip over both
    relations at the calibrated effective partitioning bandwidth (which
    absorbs SWWC flushes and TLB pressure); the join pass is a fixed
    cost — the max of re-reading the partitions at memory bandwidth and
    the per-core cache-resident join rate, neither a stream model.
    """
    processor = config.processor
    proc = cost_model.machine.processor(processor)
    if not isinstance(proc, Cpu):
        raise LogicalError("the radix baseline runs on CPUs only")
    calibration = cost_model.calibration
    memory = proc.local_memory
    partition_bw = calibration.partition_bandwidth.get(proc.spec.name, 10 * GIB)
    total_bytes = r.modeled_bytes + s.modeled_bytes
    tuples = r.modeled_tuples + s.modeled_tuples
    partition = AccessProfile(
        streams=[
            seq_stream(
                processor,
                memory.name,
                total_bytes,
                label="radix partition r+w",
                bandwidth_factor=min(1.0, partition_bw / memory.spec.seq_bw),
            )
        ],
        label="partition",
        processor=processor,
    )
    reread = total_bytes / memory.spec.seq_bw
    compute = tuples / (
        proc.spec.cores * calibration.partition_join_rate_per_core
    )
    join = PhaseCost(
        seconds=max(reread, compute),
        bottleneck=(
            f"mem:{memory.name}" if reread >= compute else f"compute:{processor}"
        ),
        occupancy={f"mem:{memory.name}": reread, f"compute:{processor}": compute},
        label="join",
    )
    return Plan(
        [
            priced_phase(
                "partition",
                partition,
                claims=(processor,),
                span_worker=processor,
                span_units=float(tuples),
            ),
            fixed_phase(
                "join",
                join,
                deps=("partition",),
                claims=(processor,),
                span_worker=processor,
                span_units=float(tuples),
            ),
        ],
        label="radix",
    )


def _star_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    fact: Scan,
    dimensions: Sequence[Tuple[Relation, str]],
    stats: StarStats,
) -> Plan:
    """Star joins fold the dimensions over GPU+Het: parallel builds
    (round-robin over the workers, barrier mode), a broadcast of every
    finished table to every other worker, then an all-workers
    conjunctive pool probe of the fact table.

    ``dimensions`` is ``(relation, fact_key)`` pairs in probe order.
    """
    machine = cost_model.machine
    workers = config.workers
    claims = tuple(workers)
    span_worker = ",".join(workers)
    modeled_fact = fact.modeled_rows

    build_loads: Dict[str, WorkerLoad] = {}
    broadcast = 0.0
    occupancy: Dict[str, float] = {}
    for i, (rel, fact_key) in enumerate(dimensions):
        builder = workers[i % len(workers)]
        profile, _ = build_profile(
            cost_model,
            builder,
            rel,
            _local_region(machine, builder),
            rel.modeled_bytes,
            rel.tuple_bytes,
            f"build[{fact_key}]",
            read_label="read dim",
        )
        build_loads[f"{builder}#{fact_key}"] = WorkerLoad(
            profile, float(rel.modeled_tuples)
        )
        if len(workers) > 1:
            seconds, resource = _broadcast(
                cost_model, builder, len(workers) - 1, rel.modeled_bytes
            )
            broadcast += seconds
            occupancy[resource] = occupancy.get(resource, 0.0) + seconds

    # Short-circuit: only tuples still alive probe the next dimension;
    # each probe is key + (on match) value.
    probed: List[Tuple[float, float, float]] = []
    alive = 1.0
    for (rel, _fact_key), survival in zip(dimensions, stats.survival_per_dim):
        accesses = modeled_fact * alive * (1.0 + survival)
        probed.append((rel.modeled_bytes, accesses, rel.key_bytes))
        alive *= survival
    fact_bytes = modeled_fact * float(sum(fact.column_bytes()))
    probe_loads: Dict[str, WorkerLoad] = {}
    for worker in workers:
        local = _local_region(machine, worker)
        profile, _ = probe_profile(
            cost_model,
            worker,
            fact,
            fact_bytes,
            modeled_fact,
            [ProbedTable(local, *table) for table in probed],
            f"probe[{worker}]",
            read_label="read fact",
            table_label="dim probe",
        )
        probe_loads[worker] = WorkerLoad(profile, float(modeled_fact))

    return Plan(
        [
            concurrent_phase(
                "build", build_loads, claims=claims, span_worker=span_worker
            ),
            fixed_phase(
                "broadcast",
                PhaseCost(
                    seconds=broadcast,
                    bottleneck=(
                        max(occupancy, key=lambda res: occupancy[res])
                        if occupancy
                        else "(none)"
                    ),
                    occupancy=occupancy,
                    label="broadcast",
                ),
                deps=("build",),
                claims=claims,
                span_worker=span_worker,
            ),
            concurrent_phase(
                "probe",
                probe_loads,
                shared_units=float(modeled_fact),
                deps=("broadcast",),
                claims=claims,
                span_worker=span_worker,
                span_units=float(modeled_fact),
            ),
        ],
        label=config.label or "star",
    )


def _scan_plan(
    cost_model: CostModel,
    config: PhysicalConfig,
    table: Scan,
    stats: ScanStats,
) -> Plan:
    """One-phase plan: the fused scan/filter/aggregate kernel — the
    probe pipeline with no table to probe."""
    processor = config.processor
    variant = config.variant
    label = config.label or table.name
    modeled_rows = table.modeled_rows
    is_gpu = _is_gpu(cost_model.machine, processor)
    work = cost_model.calibration.scan_work_per_tuple[
        "gpu" if is_gpu else "cpu"
    ]
    if variant == "branching" and not is_gpu:
        # Branchy scalar code cannot use SIMD predication; the CPU
        # pays more per-row work but the same skipping benefit.
        work *= 2.0
    read_bytes = modeled_rows * sum(
        width * frac
        for width, frac in zip(table.column_bytes(), stats.column_line_fractions)
    )
    profile, chunked = _worker_profile(
        cost_model,
        processor,
        table,
        config.transfer_method,
        read_bytes,
        f"scan {table.name}",
        [],
        modeled_rows * work,
        f"{label}-{variant}",
        launch=True,
    )
    return Plan(
        [
            priced_phase(
                "scan",
                profile,
                chunked=chunked,
                claims=(processor,),
                span_worker=processor,
                span_units=float(modeled_rows),
                span_attrs={"variant": variant},
            )
        ],
        label=f"{label}[{variant}]",
    )


# ----------------------------------------------------------------------
# Compiler entry point
# ----------------------------------------------------------------------
def compile_query(
    query,
    config: PhysicalConfig,
    cost_model: CostModel,
    stats,
) -> Plan:
    """Lower a logical plan to a priced :class:`repro.plan.Plan` DAG.

    ``stats`` must match the shape: :class:`ScanStats` for
    scan/filter/aggregate pipelines, :class:`JoinStats` for one hash
    join, :class:`StarStats` for multi-join star shapes (or for one
    join priced as a one-dimension star).  The ``radix`` strategy
    builds no hash table and prices from cardinalities alone, so it
    takes no statistics (``None``).
    """
    shape = classify(query)
    if isinstance(shape, ScanShape):
        if not isinstance(stats, ScanStats):
            raise LogicalError(
                f"scan shapes need ScanStats, got {type(stats).__name__}"
            )
        columns = len(shape.scan.schema())
        if len(stats.column_line_fractions) != columns:
            raise LogicalError(
                f"ScanStats carries {len(stats.column_line_fractions)} "
                f"column line fractions for the {columns} columns of "
                f"scan {shape.scan.name!r}"
            )
        return _scan_plan(cost_model, config, shape.scan, stats)
    if isinstance(shape, JoinShape) and not isinstance(stats, StarStats):
        r = shape.build.relation
        s = shape.probe.relation
        if r is None or s is None:
            raise LogicalError(
                "join lowering needs Relation-backed scans on both sides"
            )
        if config.strategy == "radix":
            return _radix_join_plan(cost_model, config, r, s)
        if not isinstance(stats, JoinStats):
            raise LogicalError(
                f"join shapes need JoinStats, got {type(stats).__name__}"
            )
        if config.strategy == "single":
            return _single_join_plan(cost_model, config, r, s, stats)
        return _coop_join_plan(cost_model, config, r, s, stats)
    if isinstance(shape, JoinShape):
        # A one-dimension star query: price the parallel-build /
        # broadcast / pool-probe pipeline (Section 6.2's multi-way
        # extension) instead of the Section-6 morsel-dispatch probe.
        fact = shape.probe
        dimensions: Tuple[Tuple[Scan, str, Optional[float]], ...] = (
            (shape.build, shape.join.probe_key, shape.join.selectivity),
        )
    else:
        if not isinstance(stats, StarStats):
            raise LogicalError(
                f"star shapes need StarStats, got {type(stats).__name__}"
            )
        fact = shape.fact
        dimensions = shape.dimensions
    if config.strategy in _SOLO_STRATEGIES:
        raise LogicalError(
            "star shapes and star statistics lower to the cooperative "
            "build/broadcast/probe pipeline; use strategy 'gpu+het' with "
            "a workers tuple"
        )
    if config.join_order:
        if sorted(config.join_order) != list(range(len(dimensions))):
            raise LogicalError(
                f"join_order {config.join_order} is not a permutation of "
                f"the {len(dimensions)} dimensions"
            )
        dimensions = tuple(dimensions[i] for i in config.join_order)
    if len(stats.survival_per_dim) != len(dimensions):
        raise LogicalError(
            f"StarStats carries {len(stats.survival_per_dim)} survival "
            f"fractions for the {len(dimensions)} dimensions of the star"
        )
    dims: List[Tuple[Relation, str]] = []
    for dim_scan, fact_key, _selectivity in dimensions:
        if dim_scan.relation is None:
            raise LogicalError(
                "star lowering needs Relation-backed dimension scans"
            )
        dims.append((dim_scan.relation, fact_key))
    return _star_plan(cost_model, config, fact, dims, stats)
