"""Morsel-parallel drivers for the functional layer's kernels.

These helpers run a hash-table build, a probe, or a predicate cascade
either on the calling thread (``executor is None`` — one ``insert_batch``
/ ``lookup_batch`` call, which itself walks the keys in cache-resident
blocks) or across a :class:`~repro.exec.pool.MorselExecutor`.
The contract, enforced by the equivalence tests, is that the two paths
produce **bit-identical outputs and identical TableStats**, so the
``backend`` knob changes wall-clock behaviour only — never a result,
a priced manifest, or a metric snapshot.

Build decomposition is scheme-aware, because not every table build is
morsel-divisible:

* **perfect** — ``slot = key`` with unique keys means writes are
  slot-disjoint; workers build fully in parallel through private
  :meth:`~repro.core.hashtable.base.HashTableBase.stats_view`\\ s.  A
  post-build occupancy audit catches the one race the per-batch
  duplicate check cannot see (the same key arriving in two concurrent
  morsels).
* **chaining** — head-pointer prepends commute per bucket but the chain
  *layout* depends on application order, so morsels are applied through
  the executor's sequencer in morsel order; the resulting table is
  bit-identical to a serial morsel-order build.
* **open addressing** — the numpy CAS emulation resolves within-round
  races per *batch*; splitting the batch changes which keys race and
  therefore the final slot layout (and downstream probe counts).  The
  build stays one whole batch regardless of backend.

Probes and predicate masks are read-only and element-independent, so
they decompose for every scheme: a probe morsel writes its slice of the
two output arrays in place, and a mask morsel its slice of each
preallocated mask.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.scheduler.morsel import WorkRange
from repro.exec.pool import MorselExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hashtable.base import HashTableBase

# The concrete hash-table classes are imported inside execute_build():
# importing them at module scope triggers the repro.core package
# __init__, whose operators import repro.exec right back — a cycle that
# breaks whichever side is imported first.

#: a predicate-mask evaluator over a half-open row range.
MaskEvaluator = Callable[[int, int], np.ndarray]


def _view_for(
    views: Dict[str, HashTableBase], table: HashTableBase, worker: str
) -> HashTableBase:
    """The worker's stats view, created on first use (under the GIL dict
    item assignment is atomic, and each worker only touches its own
    key)."""
    view = views.get(worker)
    if view is None:
        view = table.stats_view()
        views[worker] = view
    return view


def _absorb_all(
    table: HashTableBase, views: Dict[str, HashTableBase]
) -> None:
    """Fold per-worker counters back, in worker-name order.

    The merge is a commutative integer sum, so any order yields the
    serial counts; sorting just makes the absorption itself
    deterministic."""
    for worker in sorted(views):
        table.absorb_view(views[worker])


def _audit_perfect_occupancy(table: HashTableBase) -> None:
    """Catch same-key races a per-batch duplicate check cannot see.

    Two concurrent morsels carrying the same key can both observe the
    slot EMPTY and both count a successful insert; audit the actual
    occupancy against the claimed size.
    """
    occupied = int(np.count_nonzero(table.keys != table.EMPTY))
    if occupied != table.size:
        raise ValueError(
            "perfect hashing requires unique keys; concurrent build "
            f"claimed {table.size} inserts but occupies {occupied} slots"
        )


def execute_build(
    table: HashTableBase,
    keys: np.ndarray,
    values: np.ndarray,
    executor: Optional[MorselExecutor] = None,
) -> None:
    """Populate ``table`` with (keys, values); scheme-aware decomposition."""
    from repro.core.hashtable.chaining import ChainingHashTable
    from repro.core.hashtable.perfect import PerfectHashTable

    if executor is None or len(keys) == 0:
        table.insert_batch(keys, values)
        return
    if isinstance(table, PerfectHashTable):
        views: Dict[str, HashTableBase] = {}

        def build_morsel(work: WorkRange, worker: str) -> None:
            view = _view_for(views, table, worker)
            view.insert_batch(keys[work.start : work.end],
                              values[work.start : work.end])

        executor.run(len(keys), build_morsel)
        _absorb_all(table, views)
        _audit_perfect_occupancy(table)
        return
    if isinstance(table, ChainingHashTable):
        # Chain layout follows application order: sequence the morsels.
        def build_ordered(work: WorkRange, worker: str) -> None:
            table.insert_batch(keys[work.start : work.end],
                               values[work.start : work.end])

        executor.run(len(keys), build_ordered, ordered=True)
        return
    # Open addressing: batch-scoped race resolution — not morsel-divisible.
    table.insert_batch(keys, values)


def execute_probe(
    table: HashTableBase,
    keys: np.ndarray,
    executor: Optional[MorselExecutor] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Look up ``keys``; returns (found, values) bit-identical to serial.

    Linear probing, chain walks, and perfect lookups are pure functions
    of the (frozen) table and the key slice, and all counters are
    per-tuple sums — so a morsel-split probe returns the same outputs
    and records the same TableStats as one whole-batch lookup.
    """
    if executor is None or len(keys) == 0:
        return table.lookup_batch(keys)
    views: Dict[str, HashTableBase] = {}
    found = np.zeros(len(keys), dtype=bool)
    values = np.zeros(len(keys), dtype=table.values.dtype)

    def probe_morsel(work: WorkRange, worker: str) -> None:
        # Each morsel owns its slice of the outputs, so a retried morsel
        # rewrites the same rows with the same answers.
        view = _view_for(views, table, worker)
        rows = slice(work.start, work.end)
        view.lookup_into(keys[rows], found[rows], values[rows])

    executor.run(len(keys), probe_morsel)
    _absorb_all(table, views)
    return found, values


def execute_masks(
    n_rows: int,
    evaluators: Sequence[MaskEvaluator],
    executor: Optional[MorselExecutor] = None,
) -> List[np.ndarray]:
    """Evaluate row-range predicates over ``[0, n_rows)``.

    Each evaluator maps a half-open row range to the boolean mask of
    those rows.  A morsel writes its slice of each preallocated mask in
    place, so no mask exists twice.  Element-wise predicates make the
    sliced evaluation bit-identical to whole-array evaluation.
    """
    if executor is None or n_rows == 0:
        return [evaluator(0, n_rows) for evaluator in evaluators]
    masks = [np.empty(n_rows, dtype=bool) for _ in evaluators]

    def masks_morsel(work: WorkRange, worker: str) -> None:
        # Each morsel owns its slice of the masks, so a retried morsel
        # rewrites the same rows with the same answers.
        for mask, evaluator in zip(masks, evaluators):
            mask[work.start : work.end] = evaluator(work.start, work.end)

    executor.run(n_rows, masks_morsel)
    return masks
