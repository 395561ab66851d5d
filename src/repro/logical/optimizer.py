"""The cost-based optimizer: enumerate physical alternatives, price
each with ``repro.costmodel``, pick the cheapest.

The search space is exactly the paper's knob set:

* **transfer method** — the eight Table-1 methods, with the input
  relations reallocated to each method's required
  :class:`~repro.hardware.memory.MemoryKind` (mirroring what the
  paper's harness does between measurement series); methods whose
  route or kind ``check_supported`` rejects become *rejected*
  candidates, never winners;
* **hash-table placement** — GPU, CPU, the hybrid allocator's
  best-effort split, plus an explicit Figure-8/11 GPU-fraction sweep;
* **execution strategy** — single-processor (GPU-only or CPU-only),
  Het (shared table, cooperative morsel probe), GPU+Het (build,
  broadcast, probe everywhere);
* **join order** — dimension permutations for star shapes;
* **host tier** — serial or threads backend and worker count.
  Results and modeled plan costs are backend-invariant (pinned by the
  equivalence suite), so the tier is chosen by a deterministic
  data-size heuristic (:func:`repro.exec.host_tier`, the rule the join
  facades run by default) rather than by price.

Candidates are priced through the same :func:`compile_query` +
:class:`~repro.plan.PlanExecutor` path the operator facades use, from
*estimated* statistics (``repro.logical.stats``); the estimation error
is tracked as the predicted-vs-actual gap benchmark.

The search is branch-and-bound.  Every candidate is compiled, in
enumeration order, and bounded by :meth:`~repro.plan.PlanExecutor.bound`
(a closed-form lower bound on its makespan).  Candidates are then
priced in ascending ``(bound, index)`` order until the next one cannot
beat the incumbent: its bound exceeds the cheapest price so far, or
equals it from a later index.  The winner is therefore exactly the
exhaustive ``min((seconds, index))``; the candidates never priced are
reported as *pruned*, with their bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.costmodel.model import CostModel
from repro.core.hashtable.placement import (
    HashTablePlacement,
    place_hash_table,
)
from repro.data.relation import Relation
from repro.exec import host_tier
from repro.hardware.topology import Machine
from repro.logical.algebra import (
    Aggregate,
    HashJoin,
    LogicalError,
    Query,
    Scan,
)
from repro.logical.lower import (
    JoinShape,
    PhysicalConfig,
    ScanShape,
    StarShape,
    classify,
    compile_query,
)
from repro.logical.stats import (
    estimate_join_stats,
    estimate_scan_stats,
    estimate_star_stats,
)
from repro.memory.allocator import OutOfMemoryError
from repro.obs import INERT
from repro.plan import Plan, PlanExecutor
from repro.transfer.methods import (
    TRANSFER_METHODS,
    UnsupportedTransferError,
    placed_for,
)

#: version of the optimizer-decision manifest section.
OPTIMIZER_SCHEMA_VERSION = "1.1"

#: Figure-8/11 GPU-fraction sweep for hybrid hash tables.
FRACTION_SWEEP = (0.75, 0.5, 0.25)

#: cap on enumerated dimension permutations for star shapes.
MAX_JOIN_ORDERS = 24

#: errors that make a candidate *rejected* (kept, with its reason)
#: rather than failing the whole optimization.
REJECTIONS = (
    UnsupportedTransferError,
    OutOfMemoryError,
    LogicalError,
    ValueError,
)


@dataclass(frozen=True)
class Candidate:
    """One point of the physical search space: priced, pruned (compiled
    and bounded, never priced) or rejected."""

    config: PhysicalConfig
    seconds: Optional[float] = None
    rejected: Optional[str] = None
    #: lower bound on ``seconds`` (every compiled candidate has one).
    bound: Optional[float] = None

    @property
    def viable(self) -> bool:
        return self.rejected is None and self.seconds is not None

    @property
    def pruned(self) -> bool:
        return self.rejected is None and self.seconds is None

    def describe(self) -> str:
        """One explain line: the config plus its price, bound or
        rejection."""
        if self.rejected is not None:
            return f"{self.config.describe()} — rejected: {self.rejected}"
        if self.seconds is None:
            return f"{self.config.describe()} — pruned: bound {self.bound:.6f}s"
        return f"{self.config.describe()} — {self.seconds:.6f}s"

    def summary(self) -> Dict[str, object]:
        """Manifest row (not the schema-checked section writer)."""
        return {
            "config": self.config.describe(),
            "seconds": self.seconds,
            "bound": self.bound,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class OptimizerResult:
    """The chosen plan plus the full considered space."""

    query: str
    shape: str
    machine: str
    chosen: Candidate
    candidates: Tuple[Candidate, ...]
    chosen_plan: Plan
    gpu_fraction: Optional[float] = None

    @property
    def rejected(self) -> Tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.rejected is not None)

    @property
    def pruned(self) -> Tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.pruned)

    def explain(self) -> str:
        """Human-readable report of the considered space."""
        viable = [c for c in self.candidates if c.viable]
        pruned = sorted(
            self.pruned, key=lambda c: (c.bound, c.config.describe())
        )
        lines = [
            f"optimize[{self.shape}] on {self.machine}",
            "query:",
        ]
        lines += ["  " + line for line in self.query.splitlines()]
        lines.append(
            f"chosen: {self.chosen.config.describe()} "
            f"(predicted {self.chosen.seconds:.6f}s)"
        )
        lines.append(
            f"considered {len(self.candidates)} candidates "
            f"({len(viable)} viable, {len(pruned)} pruned, "
            f"{len(self.rejected)} rejected):"
        )
        ranked = sorted(
            viable, key=lambda c: (c.seconds, c.config.describe())
        )
        for cand in ranked:
            marker = "*" if cand is self.chosen else " "
            lines.append(f"  {marker} {cand.describe()}")
        for cand in pruned:
            lines.append(f"  - {cand.describe()}")
        for cand in self.rejected:
            lines.append(f"  x {cand.describe()}")
        return "\n".join(lines)

    def section(self) -> Dict[str, object]:
        """The manifest's ``optimizer`` section (schema-checked)."""
        return {
            "schema_version": OPTIMIZER_SCHEMA_VERSION,
            "machine": self.machine,
            "shape": self.shape,
            "strategy": self.chosen.config.strategy,
            "transfer_method": self.chosen.config.transfer_method,
            "placement": (
                self.chosen.config.placement.label
                if self.chosen.config.placement is not None
                else None
            ),
            "gpu_fraction": self.gpu_fraction,
            "backend": self.chosen.config.backend,
            # table sharding is gone; the key stays (schema 1.x is additive)
            "shards": 1,
            "predicted_seconds": self.chosen.seconds,
            "considered": len(self.candidates),
            "rejected": len(self.rejected),
            "pruned": len(self.pruned),
            "candidates": self._summaries(),
        }

    def _summaries(self) -> List[Dict[str, object]]:
        return [c.summary() for c in self.candidates]


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------
def _rekind_join(
    shape: JoinShape, transfer_method: str
) -> Tuple[Query, Relation, Relation]:
    """Rebuild the query with both relations allocated as
    ``transfer_method`` requires (Table 1, :func:`placed_for`)."""
    r = placed_for(shape.build.relation, transfer_method)
    s = placed_for(shape.probe.relation, transfer_method)
    build = Scan(r, name=shape.build.name)
    probe = Scan(s, name=shape.probe.name)
    join = HashJoin(
        build,
        probe,
        build_key=shape.join.build_key,
        probe_key=shape.join.probe_key,
        selectivity=shape.join.selectivity,
    )
    agg = Aggregate(join, shape.aggregate.group_by, shape.aggregate.aggregates)
    return Query(agg), r, s


def _fraction_placement(
    machine: Machine,
    table_bytes: float,
    fraction: float,
    gpu_name: str,
) -> HashTablePlacement:
    """An explicit A_GPU split (the Figure-8 sweep point)."""
    gpu_region = machine.processor(gpu_name).local_memory
    available = gpu_region.capacity - gpu_region.allocated
    if table_bytes * fraction > available:
        raise OutOfMemoryError(
            f"GPU fraction {fraction:.2f} of {table_bytes:.0f} bytes "
            f"exceeds {gpu_name}'s memory"
        )
    cpu_region = machine.nearest_cpu_memory(gpu_name)
    return HashTablePlacement(
        total_bytes=int(table_bytes),
        fractions={gpu_region.name: fraction, cpu_region.name: 1.0 - fraction},
        label=f"hybrid[{fraction:.2f}]",
    )


def _join_candidates(
    shape: JoinShape,
    machine: Machine,
    gpu_name: str,
    workers: Tuple[str, ...],
    tier: Tuple[str, int],
    scheme: str,
    label: str,
):
    """Yield (config, query, stats) points for a two-table join."""
    backend, exec_workers = tier
    r_scan, s_scan = shape.build, shape.probe
    if r_scan.relation is None or s_scan.relation is None:
        raise LogicalError(
            "the optimizer needs Relation-backed scans to enumerate "
            "transfer methods (it reallocates the inputs per method)"
        )
    selectivity = (
        shape.join.selectivity if shape.join.selectivity is not None else 1.0
    )

    def stats_for(r: Relation, s: Relation):
        return estimate_join_stats(
            r.modeled_tuples,
            s.modeled_tuples,
            r.key_bytes,
            r.payload_bytes,
            scheme=scheme,
            selectivity=selectivity,
        )

    base = PhysicalConfig(
        strategy="single",
        processor=gpu_name,
        backend=backend,
        exec_workers=exec_workers,
        hash_scheme=scheme,
        label=label,
    )

    # GPU-only: transfer method x hash-table placement.
    for method_name in sorted(TRANSFER_METHODS):
        query, r, s = _rekind_join(shape, method_name)
        stats = stats_for(r, s)
        table_bytes = stats.table.modeled_bytes
        placement_strategies: List[object] = ["gpu", "cpu", "hybrid"]
        placement_strategies.extend(FRACTION_SWEEP)
        for strategy in placement_strategies:
            def build_config(
                method_name: str = method_name,
                strategy: object = strategy,
                table_bytes: float = table_bytes,
            ) -> PhysicalConfig:
                if isinstance(strategy, float):
                    placement = _fraction_placement(
                        machine, table_bytes, strategy, gpu_name
                    )
                else:
                    placement = place_hash_table(
                        machine, int(table_bytes), str(strategy),
                        gpu_name=gpu_name,
                    )
                # ``base`` plus two fields, built directly: this runs
                # once per placement candidate, and replace() costs more.
                return PhysicalConfig(
                    strategy=base.strategy,
                    processor=base.processor,
                    transfer_method=method_name,
                    placement=placement,
                    backend=base.backend,
                    exec_workers=base.exec_workers,
                    hash_scheme=base.hash_scheme,
                    label=base.label,
                )
            yield build_config, query, stats

    # CPU-only: one candidate per CPU; ingest never crosses the
    # interconnect, so the transfer method is moot (kept at the
    # query's pageable default).
    query, r, s = _rekind_join(shape, "coherence")
    stats = stats_for(r, s)
    for cpu in machine.cpus():
        def cpu_config(cpu_name: str = cpu.name) -> PhysicalConfig:
            placement = place_hash_table(
                machine,
                int(stats.table.modeled_bytes),
                "cpu",
                gpu_name=gpu_name,
            )
            return replace(
                base,
                processor=cpu_name,
                transfer_method="coherence",
                placement=placement,
            )
        yield cpu_config, query, stats

    # Cooperative strategies need every worker to address the shared
    # (or replicated) table through a cache-coherent interconnect.
    for strategy in ("het", "gpu+het"):
        def coop_config(strategy: str = strategy) -> PhysicalConfig:
            if not machine.coherent_gpu_access:
                raise UnsupportedTransferError(
                    f"{strategy} needs cache-coherent GPU access and "
                    f"{machine.name}'s interconnect is not coherent"
                )
            return replace(
                base,
                strategy=strategy,
                workers=workers,
                transfer_method="coherence",
                placement=None,
            )
        yield coop_config, query, stats


def _scan_candidates(
    shape: ScanShape,
    machine: Machine,
    gpu_name: str,
    tier: Tuple[str, int],
    calibration: Calibration,
    label: str,
):
    """Yield (config, query, stats) points for a selection scan."""
    backend, exec_workers = tier
    query = Query(shape.aggregate)
    processors = [gpu_name] + [cpu.name for cpu in machine.cpus()]
    value_bytes = shape.scan.column_bytes()
    for processor in processors:
        is_gpu = processor == gpu_name
        methods = sorted(TRANSFER_METHODS) if is_gpu else ["coherence"]
        for method_name in methods:
            for variant in ("predicated", "branching"):
                stats = estimate_scan_stats(
                    variant,
                    shape.predicates,
                    len(value_bytes),
                    value_bytes,
                    calibration.branching_residual_load,
                )

                def scan_config(
                    processor: str = processor,
                    method_name: str = method_name,
                    variant: str = variant,
                ) -> PhysicalConfig:
                    return PhysicalConfig(
                        strategy="single",
                        processor=processor,
                        transfer_method=method_name,
                        variant=variant,
                        backend=backend,
                        exec_workers=exec_workers,
                        label=label,
                    )

                yield scan_config, query, stats


def _star_candidates(
    shape: StarShape,
    machine: Machine,
    gpu_name: str,
    workers: Tuple[str, ...],
    tier: Tuple[str, int],
    label: str,
):
    """Yield (config, query, stats) points for a star shape: one
    candidate per enumerated dimension probe order.

    Past ``MAX_JOIN_ORDERS`` the enumeration keeps the orders that probe
    the most selective dimensions first (a missing hint filters
    nothing; ties go to the lower index), emitted in index order.
    """
    backend, exec_workers = tier
    query = Query(shape.aggregate)
    hints = [sel for _scan, _key, sel in shape.dimensions]
    survival = [1.0 if sel is None else sel for sel in hints]
    ranked = sorted(range(len(hints)), key=lambda i: (survival[i], i))
    orders = sorted(
        itertools.islice(itertools.permutations(ranked), MAX_JOIN_ORDERS)
    )
    for order in orders:
        stats = estimate_star_stats([hints[i] for i in order])

        def star_config(
            order: Tuple[int, ...] = tuple(order)
        ) -> PhysicalConfig:
            if not machine.coherent_gpu_access:
                raise UnsupportedTransferError(
                    "the star pipeline replicates dimension tables and "
                    "probes cooperatively; it needs coherent GPU access"
                )
            return PhysicalConfig(
                strategy="gpu+het",
                workers=workers,
                transfer_method="coherence",
                join_order=order,
                backend=backend,
                exec_workers=exec_workers,
                label=label,
            )

        yield star_config, query, stats


def _enumerate(
    query,
    machine: Machine,
    calibration: Calibration,
    gpu_name: str,
    workers: Optional[Sequence[str]],
    hash_scheme: str,
    label: str,
):
    """(shape name, candidate points) of a query, in enumeration order;
    each point is a ``(build_config, query, stats)`` triple."""
    shape = classify(query)
    if workers is None:
        workers = (gpu_name,) + tuple(cpu.name for cpu in machine.cpus())
    workers = tuple(workers)
    if isinstance(shape, ScanShape):
        tier = host_tier(shape.scan.executed_rows)
        return "scan", _scan_candidates(
            shape, machine, gpu_name, tier, calibration,
            label or shape.scan.name,
        )
    if isinstance(shape, JoinShape):
        tier = host_tier(shape.probe.executed_rows)
        return "join", _join_candidates(
            shape, machine, gpu_name, workers, tier, hash_scheme,
            label or "join",
        )
    tier = host_tier(shape.fact.executed_rows)
    return "star", _star_candidates(
        shape, machine, gpu_name, workers, tier, label or "star"
    )


# ----------------------------------------------------------------------
# The optimizer entry point
# ----------------------------------------------------------------------
def optimize(
    query,
    machine: Machine,
    calibration: Calibration = DEFAULT_CALIBRATION,
    gpu_name: str = "gpu0",
    workers: Optional[Sequence[str]] = None,
    hash_scheme: str = "perfect",
    label: str = "",
) -> OptimizerResult:
    """Pick the cheapest physical plan for a logical query.

    Returns an :class:`OptimizerResult` carrying the chosen candidate,
    its compiled :class:`~repro.plan.Plan`, and every alternative that
    was considered (including rejections with reasons), ready for
    ``explain()`` or the manifest's ``optimizer`` section.
    """
    shape_name, points = _enumerate(
        query, machine, calibration, gpu_name, workers, hash_scheme, label
    )
    # Candidates are priced for their makespan alone: spans and metrics
    # of every rejected alternative would be thrown away, and callers
    # re-execute the chosen plan on a bundle of their own.
    cost_model = CostModel(machine, calibration, obs=INERT)
    executor = PlanExecutor(cost_model)
    candidates: List[Candidate] = []
    plans: List[Optional[Plan]] = []
    for build_config, cand_query, stats in points:
        config: Optional[PhysicalConfig] = None
        try:
            config = build_config()
            plan = compile_query(cand_query, config, cost_model, stats)
            bound = executor.bound(plan)
        except REJECTIONS as exc:
            # Building the config itself may be what failed (an
            # unplaceable table, an incoherent route); keep a stand-in
            # so explain() still shows the attempted point.
            if config is None:
                config = PhysicalConfig(label="(rejected)")
            candidates.append(
                Candidate(config=config, rejected=str(exc))
            )
            plans.append(None)
            continue
        candidates.append(Candidate(config=config, bound=bound))
        plans.append(plan)

    # Price cheapest-bound first.  A candidate's price is at least its
    # bound, so once ``(bound, index)`` passes the incumbent's
    # ``(seconds, index)`` no later candidate can win the tie rule.
    best: Optional[Tuple[float, int]] = None
    for bound, index in sorted(
        (cand.bound, i)
        for i, cand in enumerate(candidates)
        if cand.bound is not None
    ):
        if best is not None and (bound, index) > best:
            break
        plan = plans[index]
        assert plan is not None
        seconds = executor.execute(plan).makespan
        candidates[index] = replace(candidates[index], seconds=seconds)
        if best is None or (seconds, index) < best:
            best = (seconds, index)
    if best is None:
        reasons = "; ".join(
            c.rejected for c in candidates if c.rejected is not None
        )
        raise LogicalError(
            f"no viable physical plan for this query on {machine.name}: "
            f"{reasons or 'no candidates enumerated'}"
        )
    _best_seconds, best_index = best
    chosen = candidates[best_index]
    chosen_plan = plans[best_index]
    assert chosen_plan is not None
    gpu_fraction = (
        chosen.config.placement.gpu_fraction(machine)
        if chosen.config.placement is not None
        else None
    )
    if isinstance(query, Query):
        description = query.describe()
    else:
        description = Query(query).describe()
    return OptimizerResult(
        query=description,
        shape=shape_name,
        machine=machine.name,
        chosen=chosen,
        candidates=tuple(candidates),
        chosen_plan=chosen_plan,
        gpu_fraction=gpu_fraction,
    )
