"""Radix-partitioned hash join — the paper's CPU baseline.

"As a CPU baseline, we use the radix partitioned, multi-core hash join
implementation ('PRO') provided by Barthels et al.  We modify the
baseline to use our perfect hash function, thus transforming the PRO
join into a PRA join" (Section 7.1), tuned with 12 radix bits, huge
pages, SMT and software write-combine (SWWC) buffers.

The functional layer really partitions both relations by the low radix
bits and joins partition pairs with sort-probe kernels: each key is
rotated so that its radix bits lead, and one sort of the rotated keys
is both the partition pass and the per-partition sort.  Both sorted
sides collapse into runs of equal keys; each distinct probe key is
looked up once among the distinct build keys and counts as often as it
occurs, matching the lowest row of its build-key run.
The cost model prices:

* the **partition pass** — one read+write round trip over both
  relations at the calibrated effective partitioning bandwidth (which
  absorbs SWWC flushes and TLB pressure), and
* the **join pass** — re-reading the partitions at memory bandwidth,
  overlapping with the per-core cache-resident join rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.costmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel, PhaseCost
from repro.core.join.nopa import JoinThroughput, join_columns, join_query
from repro.data.relation import Column, Relation, check_same_columns
from repro.hardware.processor import Cpu
from repro.hardware.topology import Machine
from repro.logical.lower import PhysicalConfig, compile_query
from repro.obs import Observability
from repro.plan import Plan, PlanExecutor


@dataclass(frozen=True)
class RadixExecution:
    """What one functional radix join leaves for pricing: the answer,
    the executed partitions' skew, the executed fan-out and the column
    objects read."""

    matches: int
    aggregate: int
    skew: float
    executed_radix_bits: int
    columns: Dict[str, Column]


@dataclass
class RadixJoinResult(JoinThroughput):
    """Functional result plus simulated performance."""

    matches: int
    aggregate: int
    partition_cost: PhaseCost
    join_cost: PhaseCost
    modeled_tuples: int
    partitions: int
    max_partition_skew: float
    processor: str

    @property
    def runtime(self) -> float:
        return self.partition_cost.seconds + self.join_cost.seconds


class RadixJoin:
    """The PRA/PRO baseline (CPU only).

    Args:
        radix_bits: modeled fan-out is ``2**radix_bits`` (paper: 12).
        executed_radix_bits: fan-out used by the functional layer, kept
            smaller so tiny executed relations still get non-trivial
            partitions; defaults to ``min(radix_bits, 8)``.
    """

    def __init__(
        self,
        machine: Machine,
        radix_bits: int = 12,
        executed_radix_bits: Optional[int] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        obs: Optional[Observability] = None,
    ) -> None:
        if not 1 <= radix_bits <= 20:
            raise ValueError(f"radix bits out of range: {radix_bits}")
        self.machine = machine
        self.obs = obs if obs is not None else Observability.create()
        self.cost_model = CostModel(machine, calibration, obs=self.obs)
        self.calibration = calibration
        self.radix_bits = radix_bits
        if executed_radix_bits is None:
            executed_radix_bits = min(radix_bits, 8)
        if not 0 <= executed_radix_bits <= radix_bits:
            raise ValueError(
                f"executed radix bits out of range: {executed_radix_bits} "
                f"(valid: 0..{radix_bits})"
            )
        self.executed_radix_bits = executed_radix_bits

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    @staticmethod
    def _partition_major(keys: np.ndarray, bits: int) -> np.ndarray:
        """Keys as ``uint64`` rotated right by ``bits``: the radix bits
        lead, so ascending order is partition by partition, and by key
        within a partition.  The rotation is a bijection, so equal
        rotated keys are equal keys."""
        rotated = keys.astype(np.uint64)
        if bits:
            rotated = (rotated << np.uint64(64 - bits)) | (rotated >> np.uint64(bits))
        return rotated

    @staticmethod
    def _run_starts(keys: np.ndarray) -> np.ndarray:
        """Index of the first element of each run of equal values in the
        sorted, non-empty ``keys``."""
        change = np.empty(len(keys), dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        return np.flatnonzero(change)

    def execute(self, r: Relation, s: Relation) -> RadixExecution:
        """Partition and join the real columns (no machine involved)."""
        bits = self.executed_radix_bits
        fanout = 1 << bits
        matches = 0
        aggregate = 0
        if len(r.key) and len(s.key):
            # Sorting the rotated keys is the partition pass and the
            # per-partition sort.  A duplicate R key's first copy (its
            # lowest row) is the one a probe matches, taken from each run
            # of equal keys, so the sort need not be stable.
            r_keys = self._partition_major(r.key, bits)
            order = np.argsort(r_keys)
            r_keys = r_keys[order]
            r_starts = self._run_starts(r_keys)
            first = np.minimum.reduceat(order, r_starts)
            r_keys = r_keys[r_starts]
            # Each distinct probe key is looked up once and weighted by
            # its count: one searchsorted walks both sorted key sets.
            s_keys = np.sort(self._partition_major(s.key, bits))
            s_starts = self._run_starts(s_keys)
            counts = np.diff(s_starts, append=len(s_keys))
            s_keys = s_keys[s_starts]
            pos = np.searchsorted(r_keys, s_keys)
            np.minimum(pos, len(r_keys) - 1, out=pos)
            hit = r_keys.take(pos) == s_keys
            counts = counts[hit]
            matches = int(counts.sum())
            # int64 sums wrap mod 2**64, so Σ payload × count equals the
            # per-tuple sum bit for bit.
            payloads = r.payload.take(first.take(pos[hit])).astype(np.int64)
            payloads *= counts
            aggregate = int(payloads.sum())
        sizes = np.bincount(r.key & (fanout - 1), minlength=fanout)
        sizes += np.bincount(s.key & (fanout - 1), minlength=fanout)
        avg = (r.executed_tuples + s.executed_tuples) / fanout
        skew = int(sizes.max()) / avg if avg else 0.0
        return RadixExecution(
            matches=matches,
            aggregate=aggregate,
            skew=skew,
            executed_radix_bits=self.executed_radix_bits,
            columns=join_columns(r, s),
        )

    # ------------------------------------------------------------------
    def compile_plan(self, r: Relation, s: Relation, processor: str) -> Plan:
        """Compile the two-pass baseline (partition -> join) by lowering
        the logical join with the ``radix`` strategy: the same query the
        NOPA facades state, priced as its CPU-only partitioned
        alternative.  Radix partitioning builds no hash table, so the
        lowering takes no statistics."""
        config = PhysicalConfig(
            strategy="radix", processor=processor, label="radix"
        )
        return compile_query(join_query(r, s), config, self.cost_model, None)

    def run(self, r: Relation, s: Relation, processor: str = "cpu0") -> RadixJoinResult:
        """Partition, join, and price the baseline."""
        return self.price(self.execute(r, s), r, s, processor)

    def price(
        self,
        execution: RadixExecution,
        r: Relation,
        s: Relation,
        processor: str = "cpu0",
    ) -> RadixJoinResult:
        """Price one execution of ``r`` ⋈ ``s`` on a CPU of the machine.

        Raises:
            ValueError: for a non-CPU processor, or an execution made at
                another executed fan-out or from other columns than
                ``r`` and ``s`` hold.
        """
        proc = self.machine.processor(processor)
        if not isinstance(proc, Cpu):
            raise ValueError("the radix baseline runs on CPUs only")
        if execution.executed_radix_bits != self.executed_radix_bits:
            raise ValueError(
                f"the execution's executed_radix_bits is "
                f"{execution.executed_radix_bits}, this join's is "
                f"{self.executed_radix_bits}"
            )
        check_same_columns(execution.columns, join_columns(r, s))
        executed = PlanExecutor(self.cost_model).execute(
            self.compile_plan(r, s, processor)
        )
        partition_cost = executed.cost("partition")
        join_cost = executed.cost("join")
        return RadixJoinResult(
            matches=execution.matches,
            aggregate=execution.aggregate,
            partition_cost=partition_cost,
            join_cost=join_cost,
            modeled_tuples=r.modeled_tuples + s.modeled_tuples,
            partitions=1 << self.radix_bits,
            max_partition_skew=execution.skew,
            processor=processor,
        )
