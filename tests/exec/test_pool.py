"""The morsel-parallel executor: dispatch, merge order, errors."""

import numpy as np
import pytest

from repro.core.hashtable import create_hash_table
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import SelectionScan
from repro.exec import MorselExecutor, check_backend, make_executor
from repro.hardware.topology import ibm_ac922


def _scan(machine, **kwargs):
    return SelectionScan(machine, [object()], [], lambda columns: 0.0, **kwargs)


def _table(**kwargs):
    return create_hash_table("perfect", 64, np.int64, np.int64, **kwargs)


#: every entry point that used to take ``backend="processes"`` / ``shards=``.
BACKEND_ENTRY_POINTS = {
    "NoPartitioningJoin": lambda **kw: NoPartitioningJoin(ibm_ac922(), **kw),
    "CoopJoin": lambda **kw: CoopJoin(ibm_ac922(), **kw),
    "TpchQ6": lambda **kw: TpchQ6(ibm_ac922(), **kw),
    "SelectionScan": lambda **kw: _scan(ibm_ac922(), **kw),
    "make_executor": lambda **kw: make_executor(**{"backend": "threads", **kw}),
}
SHARDS_ENTRY_POINTS = dict(BACKEND_ENTRY_POINTS, create_hash_table=_table)


class TestRemovedKnobsRejectedAtConstruction:
    """Construction-time rejection is what lets the perf probes report a
    removed backend or knob as ``null`` instead of crashing mid-run."""

    @pytest.mark.parametrize("name", sorted(BACKEND_ENTRY_POINTS))
    def test_processes_backend_rejected(self, name):
        with pytest.raises(ValueError, match="valid: serial, threads$"):
            BACKEND_ENTRY_POINTS[name](backend="processes")

    @pytest.mark.parametrize("name", sorted(SHARDS_ENTRY_POINTS))
    def test_shards_knob_rejected(self, name):
        with pytest.raises(TypeError, match="shards"):
            SHARDS_ENTRY_POINTS[name](shards=4)


class TestValidation:
    def test_backend_names(self):
        assert check_backend("serial") == "serial"
        assert check_backend("threads") == "threads"
        with pytest.raises(ValueError, match="unknown execution backend"):
            check_backend("gpu")

    def test_make_executor_serial_is_none(self):
        assert make_executor("serial") is None
        assert make_executor("threads", workers=2).workers == 2

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            MorselExecutor(workers=0)
        with pytest.raises(ValueError):
            MorselExecutor(morsel_tuples=0)
        with pytest.raises(ValueError):
            MorselExecutor(batch_morsels=0)


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestMergeOrder:
    def test_outcomes_sorted_and_cover_input(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=64)
        total = 64 * 37 + 13  # ragged tail morsel
        outcomes = executor.run(total, lambda work, worker: work.start)
        starts = [o.work.start for o in outcomes]
        assert starts == sorted(starts)
        assert outcomes[0].work.start == 0
        assert outcomes[-1].work.end == total
        for prev, cur in zip(outcomes, outcomes[1:]):
            assert prev.work.end == cur.work.start

    def test_map_values_concatenates_in_morsel_order(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=100)
        data = np.arange(1234, dtype=np.int64)
        parts = executor.map_values(
            len(data), lambda work, worker: data[work.start : work.end] * 2
        )
        assert np.array_equal(np.concatenate(parts), data * 2)

    def test_ordered_tasks_apply_in_morsel_order(self, workers):
        executor = MorselExecutor(workers=workers, morsel_tuples=16)
        applied = []  # mutated only inside the sequencer's critical path
        executor.run(
            16 * 20, lambda work, worker: applied.append(work.start), ordered=True
        )
        assert applied == sorted(applied)


class TestErrorHandling:
    def test_worker_exception_propagates(self):
        executor = MorselExecutor(workers=4, morsel_tuples=10)

        def boom(work, worker):
            if work.start >= 200:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            executor.run(1000, boom)

    def test_ordered_exception_does_not_deadlock(self):
        executor = MorselExecutor(workers=4, morsel_tuples=10)

        def boom(work, worker):
            if work.start == 200:
                raise ValueError("ordered boom")

        with pytest.raises((ValueError, RuntimeError)):
            executor.run(1000, boom, ordered=True)

    def test_zero_tuples(self):
        executor = MorselExecutor(workers=2, morsel_tuples=10)
        assert executor.run(0, lambda work, worker: 1) == []


class TestExecutorLocalObservability:
    def test_dispatch_metrics_accumulate(self):
        executor = MorselExecutor(workers=2, morsel_tuples=32, name="probe")
        executor.run(32 * 10, lambda work, worker: None)
        total = sum(
            cell.value
            for cell in executor.metrics
            if cell.name == "morsels_dispatched_total"
        )
        assert total == 10

    def test_timeline_records_one_span_per_morsel(self):
        executor = MorselExecutor(workers=2, morsel_tuples=32)
        executor.run(32 * 10, lambda work, worker: None)
        assert len(executor.timeline.spans) == 10
        assert sum(s.units for s in executor.timeline.spans) == 320
