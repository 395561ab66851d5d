"""Deferred workload generation: shapes at once, one generation on the
first read of any column.

``DIGESTS`` was recorded while the generators still ran eagerly; every
read order, and a placed copy, must reproduce those bits.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.data.relation import ColumnTable, DeferredColumns
from repro.workloads import builders, tpch

JOIN_BUILDERS = {
    "a": lambda seed, scale: builders.workload_a(scale=scale, seed=seed),
    "b": lambda seed, scale: builders.workload_b(scale=scale, seed=seed),
    "c": lambda seed, scale: builders.workload_c(scale=scale, seed=seed),
    "skewed": lambda seed, scale: builders.workload_skewed(
        1.25, scale=scale, seed=seed
    ),
    "selectivity": lambda seed, scale: builders.workload_selectivity(
        0.3, scale=scale, seed=seed
    ),
    "ratio": lambda seed, scale: builders.workload_ratio(
        4, scale=scale, seed=seed
    ),
}
SEEDS = (3, 11)
#: log2 of the executed scale.
SCALES = (-14, -12)
CASES = [
    (name, seed, scale)
    for name in [*JOIN_BUILDERS, "q6"]
    for seed in SEEDS
    for scale in SCALES
]

#: (workload, seed, log2 scale) -> digest of its columns in canonical order.
DIGESTS = {
    ("a", 3, -14): "a6800d551f4b66d8",
    ("a", 3, -12): "138beff8ba8ff2b6",
    ("a", 11, -14): "bcf492ad8dc52b32",
    ("a", 11, -12): "cd090859ed3cf735",
    ("b", 3, -14): "da156f5554b39104",
    ("b", 3, -12): "af45a4e57aefadf5",
    ("b", 11, -14): "5e0c37e6a909200f",
    ("b", 11, -12): "719a725bdf8dd88a",
    ("c", 3, -14): "0ced48d236ebd1fa",
    ("c", 3, -12): "ba2a41456a90fd9b",
    ("c", 11, -14): "2a5f6802c69f7e5e",
    ("c", 11, -12): "95827696ff046212",
    ("skewed", 3, -14): "d48bd8b8c2ca15ee",
    ("skewed", 3, -12): "a94949d7b31a47ec",
    ("skewed", 11, -14): "d369024d05fd1942",
    ("skewed", 11, -12): "70ad4abfbe4ff619",
    ("selectivity", 3, -14): "a8531161675217be",
    ("selectivity", 3, -12): "dd70c344948464f3",
    ("selectivity", 11, -14): "b9a630f3964e56cb",
    ("selectivity", 11, -12): "b27361aefc6e5c64",
    ("ratio", 3, -14): "f04bc7afb1a8f176",
    ("ratio", 3, -12): "2bee33172a9b7c13",
    ("ratio", 11, -14): "5526d8be36104450",
    ("ratio", 11, -12): "d54e623c144d2372",
    ("q6", 3, -14): "b8d80f8dae2ce7cd",
    ("q6", 3, -12): "c789b439674b86dd",
    ("q6", 11, -14): "b07d84b05096e662",
    ("q6", 11, -12): "ed7e109d027bcf59",
}


def build(name, seed, scale):
    if name == "q6":
        return tpch.lineitem_q6(10.0, scale=2.0 ** (scale + 2), seed=seed)
    return JOIN_BUILDERS[name](seed, 2.0**scale)


def canonical_columns(workload):
    """Column arrays in a fixed order (reading any of them generates)."""
    if isinstance(workload, ColumnTable):
        return [
            workload["l_shipdate"],
            workload["l_discount"],
            workload["l_quantity"],
            workload["l_extendedprice"],
        ]
    return [workload.r.key, workload.r.payload, workload.s.key, workload.s.payload]


def digest(workload):
    outer = hashlib.sha256()
    for array in canonical_columns(workload):
        inner = hashlib.sha256(str(array.dtype).encode())
        inner.update(np.ascontiguousarray(array).tobytes())
        outer.update(inner.digest())
    return outer.hexdigest()[:16]


def read_last_column_first(workload):
    """Generate through the column the canonical order reads last."""
    if isinstance(workload, ColumnTable):
        return workload["l_extendedprice"]
    return workload.s.payload


def placed_copy(workload):
    if isinstance(workload, ColumnTable):
        return workload.placed("gpu0-mem")
    return workload.placed_for("zero_copy", location="gpu0-mem")


@pytest.mark.parametrize("order", ["canonical", "last-first", "placed"])
@pytest.mark.parametrize("name,seed,scale", CASES)
def test_columns_are_bit_identical_in_any_read_order(name, seed, scale, order):
    workload = build(name, seed, scale)
    if order == "last-first":
        read_last_column_first(workload)
    elif order == "placed":
        workload = placed_copy(workload)
    assert digest(workload) == DIGESTS[name, seed, scale]


class Counting:
    """Wraps a column generator and counts its calls."""

    def __init__(self, generate):
        self.generate = generate
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.generate(*args)


@pytest.fixture
def join_generations(monkeypatch):
    counter = Counting(builders._join_columns)
    monkeypatch.setattr(builders, "_join_columns", counter)
    return counter


@pytest.fixture
def lineitem_generations(monkeypatch):
    counter = Counting(tpch._lineitem_columns)
    monkeypatch.setattr(tpch, "_lineitem_columns", counter)
    return counter


READS = {
    "r.key": lambda wl: wl.r.key,
    "r.payload": lambda wl: wl.r.payload,
    "s.key": lambda wl: wl.s.key,
    "s.payload": lambda wl: wl.s.payload,
    "placed s.key": lambda wl: wl.placed_for("um_migration").s.key,
}


@pytest.mark.parametrize("first", sorted(READS))
def test_one_generation_per_join_workload(join_generations, first):
    workload = builders.workload_a(scale=2.0**-14)
    copy = workload.placed_for("zero_copy")
    assert join_generations.calls == 0
    READS[first](workload)
    for read in READS.values():
        read(workload)
        read(copy)
    assert join_generations.calls == 1
    assert copy.r.key is workload.r.key
    assert copy.s.payload is workload.s.payload


def test_one_generation_per_lineitem(lineitem_generations):
    workload = tpch.lineitem_q6(1.0, scale=2.0**-6)
    copy = workload.placed("cpu0-mem")
    assert workload.executed_rows == copy.executed_rows
    assert lineitem_generations.calls == 0
    assert copy["l_quantity"].dtype == np.int32
    canonical_columns(workload)
    canonical_columns(copy)
    assert lineitem_generations.calls == 1
    assert copy["l_shipdate"] is workload["l_shipdate"]


def test_shapes_are_known_before_generation(join_generations):
    workload = builders.workload_c(scale=2.0**-14)
    assert workload.r.executed_tuples == 62500
    assert workload.r.tuple_bytes == 8
    assert workload.s.modeled_bytes == builders.CARDINALITY_C * 8
    assert join_generations.calls == 0
    assert workload.r.key.dtype == np.int32
    assert len(workload.r.key) == 62500


def test_concurrent_first_reads_generate_once(join_generations):
    """More readers than cores race for the first read of one workload;
    a lost update would generate twice or hand out different arrays."""
    workload = builders.workload_a(scale=2.0**-14)
    readers = 16
    barrier = threading.Barrier(readers)
    seen = [None] * readers
    reads = list(READS.values())

    def reader(i):
        barrier.wait(timeout=10)
        seen[i] = reads[i % len(reads)](workload)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert join_generations.calls == 1
    assert all(array is not None for array in seen)
    assert seen[0] is workload.r.key


def test_generated_shape_must_match_declaration():
    columns = DeferredColumns(
        {"x": (4, np.int64)}, lambda: {"x": np.zeros(5, dtype=np.int64)}
    )
    with pytest.raises(ValueError, match="declared int64\\[4\\]"):
        columns.column("x").read()


class TestExecutedFloor:
    """The executed-row floor never lifts executed above modeled rows."""

    def test_join_floor_clamps_to_modeled(self):
        workload = builders.workload_b(size_scale=2.0**-26)
        assert workload.s.modeled_tuples == 32
        assert workload.s.executed_tuples == 32
        assert workload.s.model_factor == 1.0
        assert len(workload.s.key) == 32

    def test_lineitem_floor_clamps_to_modeled(self):
        workload = tpch.lineitem_q6(0.0005)
        assert workload.modeled_rows == 3000
        assert workload.executed_rows == 3000
        assert workload.model_factor == 1.0
        assert len(workload["l_shipdate"]) == 3000

    def test_floors_still_apply_below_them(self):
        assert builders.workload_a(scale=2.0**-30).r.executed_tuples == 64
        assert tpch.lineitem_q6(1.0, scale=2.0**-30).executed_rows == 4096
