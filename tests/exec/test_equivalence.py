"""Backend equivalence: ``threads`` output is bit-identical to serial.

The determinism contract of ``repro.exec``: for every operator and
every worker count, the parallel backend — and the join facades' default
``backend=None``, which runs the host tier — produces the same
functional results, the same ``TableStats``, and therefore the same
priced phase costs and metric snapshots as the serial path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.pool as pool
from repro.core.hashtable import create_hash_table
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import Predicate, SelectionScan
from repro.exec import (
    DEFAULT_WORKERS,
    MorselExecutor,
    execute_build,
    execute_masks,
    execute_probe,
)
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a
from repro.workloads.tpch import lineitem_q6

SCALE = 2.0**-13
SCHEMES = ("perfect", "open_addressing", "chaining")
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def machine():
    return ibm_ac922()


@pytest.fixture(scope="module")
def workload():
    return workload_a(scale=SCALE)


@pytest.fixture(scope="module")
def serial_results(machine, workload):
    results = {}
    for scheme in SCHEMES:
        join = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            hash_scheme=scheme,
            output="materialize",
            backend="serial",
        )
        results[scheme] = join.run(workload.r, workload.s)
    return results


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestNopaEquivalence:
    def test_results_and_costs_identical(
        self, machine, workload, serial_results, scheme, workers
    ):
        join = NoPartitioningJoin(
            machine,
            hash_table_placement="gpu",
            hash_scheme=scheme,
            output="materialize",
            backend="threads",
            workers=workers,
            exec_morsel_tuples=1 << 12,
        )
        parallel = join.run(workload.r, workload.s)
        serial = serial_results[scheme]
        assert parallel.matches == serial.matches
        assert parallel.aggregate == serial.aggregate
        # identical TableStats make the priced costs bit-identical
        assert parallel.build_cost.seconds == serial.build_cost.seconds
        assert parallel.probe_cost.seconds == serial.probe_cost.seconds
        assert (
            parallel.table_stats_probe_factor == serial.table_stats_probe_factor
        )
        assert parallel.payload_lines_loaded == serial.payload_lines_loaded
        for column in serial.materialized:
            assert np.array_equal(
                parallel.materialized[column], serial.materialized[column]
            )


@pytest.mark.parametrize("scheme", SCHEMES)
class TestDefaultBackendEquivalence:
    """``backend=None`` runs the host tier: threads at this workload's
    2^18 probe rows (``usable_cpus`` is pinned so it does on any host)."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: DEFAULT_WORKERS)

    def test_nopa(self, machine, workload, serial_results, scheme):
        def join(**backend):
            return NoPartitioningJoin(
                machine,
                hash_table_placement="gpu",
                hash_scheme=scheme,
                output="materialize",
                **backend,
            )

        default = join()
        execution = default.execute(workload.r, workload.s)
        got = default.price(execution, workload.r, workload.s)
        want_table = join(backend="serial").execute(workload.r, workload.s).table
        want = serial_results[scheme]
        assert default.last_executor.workers == DEFAULT_WORKERS
        assert (got.matches, got.aggregate) == (want.matches, want.aggregate)
        assert execution.table.stats.as_tuple() == want_table.stats.as_tuple()
        assert got.build_cost == want.build_cost
        assert got.probe_cost == want.probe_cost
        assert got.payload_lines_loaded == want.payload_lines_loaded
        for column in want.materialized:
            assert np.array_equal(
                got.materialized[column], want.materialized[column]
            )

    def test_coop(self, machine, workload, scheme):
        r, s = workload.r, workload.s
        default = CoopJoin(machine, hash_scheme=scheme)
        execution = default.execute(r, s)
        got = default.price(execution, r, s)
        serial = CoopJoin(machine, hash_scheme=scheme, backend="serial")
        want_execution = serial.execute(r, s)
        want = serial.price(want_execution, r, s)
        assert default.last_executor.workers == DEFAULT_WORKERS
        assert (got.matches, got.aggregate) == (want.matches, want.aggregate)
        assert (
            execution.table.stats.as_tuple()
            == want_execution.table.stats.as_tuple()
        )
        assert got.build_cost == want.build_cost
        assert got.probe_cost == want.probe_cost
        assert got.worker_shares == want.worker_shares


@pytest.mark.parametrize("scheme", SCHEMES)
def test_table_stats_tuple_identical(scheme):
    rng = np.random.default_rng(11)
    n = 40_000
    keys = rng.permutation(n).astype(np.int64)
    values = keys * 7 + 3
    probe = rng.integers(0, 2 * n, size=60_000).astype(np.int64)

    serial_table = create_hash_table(scheme, n, keys.dtype, values.dtype)
    execute_build(serial_table, keys, values, None)
    serial_out = execute_probe(serial_table, probe, None)

    for workers in WORKER_COUNTS:
        executor = MorselExecutor(workers=workers, morsel_tuples=1 << 11)
        table = create_hash_table(scheme, n, keys.dtype, values.dtype)
        execute_build(table, keys, values, executor)
        found, looked_up = execute_probe(table, probe, executor)
        assert table.stats.as_tuple() == serial_table.stats.as_tuple()
        assert table.size == serial_table.size
        assert np.array_equal(found, serial_out[0])
        assert np.array_equal(looked_up, serial_out[1])


def test_obs_metric_snapshots_identical_across_backends(machine, workload):
    """The priced observability bundle must not see the backend at all."""
    snapshots = {}
    for backend in ("serial", "threads"):
        join = NoPartitioningJoin(
            machine, hash_table_placement="gpu", backend=backend, workers=4
        )
        join.run(workload.r, workload.s)
        snapshots[backend] = join.obs.metrics.snapshot()
    assert snapshots["serial"] == snapshots["threads"]


def test_q6_equivalence(machine):
    wl = lineitem_q6(scale_factor=0.02)
    serial = TpchQ6(machine, variant="branching").run(wl)
    for workers in WORKER_COUNTS:
        parallel = TpchQ6(
            machine,
            variant="branching",
            backend="threads",
            workers=workers,
            exec_morsel_tuples=512,
        ).run(wl)
        assert parallel.aggregate == serial.aggregate
        assert parallel.qualifying_rows == serial.qualifying_rows
        assert parallel.cost.seconds == serial.cost.seconds
        assert parallel.column_line_fractions == serial.column_line_fractions


def test_threaded_masks_equal_serial_with_a_ragged_last_morsel():
    """Morsels write their slices of preallocated masks; a last morsel
    shorter than the rest lands where concatenation would put it."""
    values = np.random.default_rng(3).integers(0, 100, 10_007)
    evaluators = [
        lambda lo, hi: values[lo:hi] < 30,
        lambda lo, hi: values[lo:hi] % 7 == 0,
    ]
    serial = execute_masks(len(values), evaluators)
    for workers in WORKER_COUNTS:
        executor = MorselExecutor(workers=workers, morsel_tuples=1000)
        assert len(values) % executor.morsel_tuples != 0
        threaded = execute_masks(len(values), evaluators, executor)
        assert len(threaded) == len(serial)
        for got, want in zip(threaded, serial):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_selection_scan_equivalence(machine):
    rng = np.random.default_rng(5)
    columns = {
        "a": rng.integers(0, 100, 100_000).astype(np.int32),
        "b": rng.random(100_000).astype(np.float32),
    }
    predicates = [
        Predicate("a", lambda c: c < 40),
        Predicate("b", lambda c: c > 0.5),
    ]

    def total_b(cols):
        return float(cols["b"].sum())

    serial = SelectionScan(
        machine, predicates, ["b"], total_b, variant="branching"
    ).run(columns)
    parallel = SelectionScan(
        machine,
        predicates,
        ["b"],
        total_b,
        variant="branching",
        backend="threads",
        workers=4,
        exec_morsel_tuples=1 << 12,
    ).run(columns)
    assert parallel.aggregate == serial.aggregate
    assert parallel.qualifying_rows == serial.qualifying_rows
    assert parallel.cost.seconds == serial.cost.seconds
    assert parallel.column_line_fractions == serial.column_line_fractions


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    probe_n=st.integers(min_value=0, max_value=5000),
    workers=st.integers(min_value=1, max_value=4),
    morsel=st.integers(min_value=1, max_value=700),
    scheme=st.sampled_from(SCHEMES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_threads_equals_serial(n, probe_n, workers, morsel, scheme, seed):
    """Any workload shape, worker count, and morsel size: bit-identical."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    values = keys * 5 + 2
    probe = (
        rng.integers(0, max(1, 2 * n), size=probe_n).astype(np.int64)
        if probe_n
        else np.array([], dtype=np.int64)
    )

    serial_table = create_hash_table(scheme, n, keys.dtype, values.dtype)
    execute_build(serial_table, keys, values, None)
    serial_found, serial_values = execute_probe(serial_table, probe, None)

    executor = MorselExecutor(workers=workers, morsel_tuples=morsel)
    table = create_hash_table(scheme, n, keys.dtype, values.dtype)
    execute_build(table, keys, values, executor)
    found, looked_up = execute_probe(table, probe, executor)

    assert np.array_equal(found, serial_found)
    assert np.array_equal(looked_up, serial_values)
    assert table.stats.as_tuple() == serial_table.stats.as_tuple()
    assert table.size == serial_table.size
