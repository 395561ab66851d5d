"""Column-oriented relations and column tables."""

import numpy as np
import pytest

from repro.data.relation import ColumnTable, DeferredColumns, Relation
from repro.hardware.memory import MemoryKind


def make_relation(n=100, modeled=None):
    keys = np.arange(n, dtype=np.int64)
    payloads = keys * 2
    return Relation(
        name="R", key=keys, payload=payloads, modeled_tuples=modeled
    )


class TestBasics:
    def test_defaults(self):
        r = make_relation(10)
        assert r.executed_tuples == 10
        assert r.modeled_tuples == 10
        assert r.tuple_bytes == 16
        assert r.location == "cpu0-mem"
        assert r.kind is MemoryKind.PAGEABLE

    def test_modeled_bytes(self):
        r = make_relation(10, modeled=1000)
        assert r.modeled_bytes == 16000

    def test_scale_and_model_factor(self):
        r = make_relation(10, modeled=1000)
        assert r.scale == pytest.approx(0.01)
        assert r.model_factor == pytest.approx(100.0)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Relation(
                name="bad",
                key=np.arange(3, dtype=np.int64),
                payload=np.arange(4, dtype=np.int64),
            )

    def test_modeled_below_executed_rejected(self):
        with pytest.raises(ValueError):
            make_relation(10, modeled=5)

    def test_two_dimensional_columns_rejected(self):
        data = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            Relation(name="bad", key=data, payload=data)


class TestPlacement:
    def test_placed_changes_location_only(self):
        r = make_relation()
        moved = r.placed("gpu0-mem")
        assert moved.location == "gpu0-mem"
        assert moved.key is r.key  # zero copy
        assert r.location == "cpu0-mem"  # original untouched

    def test_placed_can_change_kind(self):
        r = make_relation()
        pinned = r.placed("cpu0-mem", kind=MemoryKind.PINNED)
        assert pinned.kind is MemoryKind.PINNED


class TestColumnTable:
    def test_shape_known_without_reading(self):
        deferred = DeferredColumns(
            {"a": (8, np.int32), "b": (8, np.float64)},
            lambda: {"a": np.arange(8, dtype=np.int32), "b": np.ones(8)},
        )
        table = ColumnTable(
            "t", {name: deferred.column(name) for name in ("a", "b")}, 80
        )
        assert table.executed_rows == 8
        assert table.modeled_bytes == 80 * 12
        assert table.model_factor == pytest.approx(10.0)
        assert not deferred.generated
        assert list(table["a"]) == list(range(8))

    def test_modeled_rows_default_to_executed(self):
        table = ColumnTable("t", {"a": np.arange(5)})
        assert table.modeled_rows == 5
        assert table.location == "cpu0-mem"
        assert table.kind is MemoryKind.PAGEABLE

    def test_placed_shares_columns(self):
        table = ColumnTable("t", {"a": np.arange(5)}, 50)
        pinned = table.placed("cpu1-mem", kind=MemoryKind.PINNED)
        assert (pinned.location, pinned.kind) == ("cpu1-mem", MemoryKind.PINNED)
        assert pinned.modeled_rows == 50
        assert pinned.columns()["a"] is table.columns()["a"]
        assert table.location == "cpu0-mem"  # original untouched

    def test_two_dimensional_columns_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ColumnTable("t", {"a": np.zeros((2, 2))})
