"""The vectorized query engine."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.engine import (
    Filter,
    HashAggregate,
    HashJoinOp,
    Limit,
    Project,
    TableScan,
    collect,
)


def scan(n=1000, morsel=128):
    rng = np.random.default_rng(0)
    return TableScan(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": rng.integers(0, 100, n).astype(np.int64),
            "g": rng.integers(0, 5, n).astype(np.int64),
        },
        morsel_rows=morsel,
    )


class TestTableScan:
    def test_batches_cover_input(self):
        result = collect(scan(1000, morsel=128))
        assert len(result["k"]) == 1000
        assert np.array_equal(result["k"], np.arange(1000))

    def test_morsel_sizes(self):
        batches = list(scan(300, morsel=128))
        assert [len(b["k"]) for b in batches] == [128, 128, 44]

    def test_relation_source(self):
        relation = Relation(
            name="R",
            key=np.arange(10, dtype=np.int64),
            payload=np.arange(10, dtype=np.int64) * 2,
        )
        result = collect(TableScan(relation))
        assert set(result) == {"key", "payload"}
        assert np.array_equal(result["payload"], np.arange(10) * 2)

    def test_column_selection(self):
        op = TableScan({"a": np.arange(4), "b": np.arange(4)}, columns=["b"])
        assert op.schema() == ("b",)

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            TableScan({"a": np.arange(3), "b": np.arange(4)})

    def test_validation(self):
        with pytest.raises(ValueError):
            TableScan({"a": np.arange(3)}, morsel_rows=0)
        with pytest.raises(ValueError):
            TableScan({})


class TestFilter:
    def test_filters_rows(self):
        result = collect(Filter(scan(1000), lambda b: b["k"] % 2 == 0))
        assert len(result["k"]) == 500
        assert (result["k"] % 2 == 0).all()

    def test_empty_batches_dropped(self):
        op = Filter(scan(1000), lambda b: b["k"] < 0)
        assert list(op) == []

    def test_all_pass_is_zero_copy(self):
        batches = list(Filter(scan(100, morsel=100), lambda b: b["k"] >= 0))
        assert len(batches) == 1

    def test_bad_predicate_shape_rejected(self):
        op = Filter(scan(100), lambda b: np.array([True]))
        with pytest.raises(ValueError):
            list(op)


class TestProject:
    def test_expressions(self):
        result = collect(
            Project(scan(10, morsel=4), {"double": lambda b: b["v"] * 2})
        )
        reference = collect(scan(10, morsel=4))["v"] * 2
        assert np.array_equal(result["double"], reference)

    def test_schema(self):
        op = Project(scan(10), {"x": lambda b: b["k"]})
        assert op.schema() == ("x",)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Project(scan(10), {})


class TestLimit:
    def test_truncates(self):
        result = collect(Limit(scan(1000, morsel=128), 300))
        assert len(result["k"]) == 300
        assert np.array_equal(result["k"], np.arange(300))

    def test_limit_larger_than_input(self):
        result = collect(Limit(scan(50), 100))
        assert len(result["k"]) == 50

    def test_zero(self):
        assert len(collect(Limit(scan(50), 0)).get("k", [])) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Limit(scan(10), -1)


class TestHashJoinOp:
    def test_inner_join(self):
        r = TableScan(
            {
                "k": np.arange(100, dtype=np.int64),
                "name": np.arange(100, dtype=np.int64) * 10,
            }
        )
        s = TableScan(
            {
                "fk": np.array([5, 5, 99, 100, 200], dtype=np.int64),
                "amount": np.array([1, 2, 3, 4, 5], dtype=np.int64),
            },
            morsel_rows=2,
        )
        result = collect(HashJoinOp(r, s, build_key="k", probe_key="fk"))
        assert len(result["fk"]) == 3  # 100 and 200 have no match
        assert np.array_equal(np.sort(result["fk"]), [5, 5, 99])
        by_fk = dict(zip(result["fk"], result["build_name"]))
        assert by_fk[5] == 50 and by_fk[99] == 990

    def test_matches_nopa_counts(self, ibm, wl_a):
        join = HashJoinOp(
            TableScan(wl_a.r),
            TableScan(wl_a.s),
            build_key="key",
            probe_key="key",
        )
        result = collect(join)
        assert len(result["key"]) == wl_a.s.executed_tuples
        # The joined build payload equals key*3+1 by construction.
        assert np.array_equal(
            result["build_payload"],
            result["key"].astype(np.int64) * 3 + 1,
        )

    def test_empty_build_side(self):
        r = TableScan({"k": np.array([], dtype=np.int64)})
        s = TableScan({"fk": np.arange(5, dtype=np.int64)})
        assert list(HashJoinOp(r, s, "k", "fk")) == []

    def test_schema_prefixes_build_columns(self):
        r = TableScan({"k": np.arange(3, dtype=np.int64), "x": np.arange(3)})
        s = TableScan({"fk": np.arange(3, dtype=np.int64)})
        op = HashJoinOp(r, s, "k", "fk")
        assert op.schema() == ("fk", "build_x")


class TestHashAggregate:
    def test_global_sum_and_count(self):
        result = collect(
            HashAggregate(
                scan(1000, morsel=128),
                group_by=(),
                aggregates={"total": ("v", "sum"), "n": ("*", "count")},
            )
        )
        reference = collect(scan(1000))
        assert result["total"][0] == reference["v"].sum()
        assert result["n"][0] == 1000

    def test_group_by_matches_numpy(self):
        source = scan(1000, morsel=77)
        result = collect(
            HashAggregate(
                source,
                group_by=("g",),
                aggregates={
                    "total": ("v", "sum"),
                    "n": ("*", "count"),
                    "lo": ("v", "min"),
                    "hi": ("v", "max"),
                },
            )
        )
        data = collect(scan(1000))
        for i, g in enumerate(result["g"]):
            mask = data["g"] == g
            assert result["total"][i] == data["v"][mask].sum()
            assert result["n"][i] == mask.sum()
            assert result["lo"][i] == data["v"][mask].min()
            assert result["hi"][i] == data["v"][mask].max()

    def test_mean(self):
        result = collect(
            HashAggregate(
                scan(500, morsel=64),
                group_by=("g",),
                aggregates={"avg": ("v", "mean")},
            )
        )
        data = collect(scan(500))
        for g, avg in zip(result["g"], result["avg"]):
            assert avg == pytest.approx(data["v"][data["g"] == g].mean())

    def test_aggregation_independent_of_morsel_size(self):
        results = []
        for morsel in (32, 1000):
            results.append(
                collect(
                    HashAggregate(
                        scan(1000, morsel=morsel),
                        group_by=("g",),
                        aggregates={"total": ("v", "sum")},
                    )
                )
            )
        assert np.array_equal(results[0]["g"], results[1]["g"])
        assert np.array_equal(results[0]["total"], results[1]["total"])

    def test_validation(self):
        with pytest.raises(ValueError):
            HashAggregate(scan(10), (), {})
        with pytest.raises(ValueError):
            HashAggregate(scan(10), (), {"x": ("v", "median")})
        with pytest.raises(ValueError):
            HashAggregate(scan(10), (), {"x": ("v", "count")})

    def test_empty_input(self):
        op = HashAggregate(
            Filter(scan(10), lambda b: b["k"] < 0),
            group_by=("g",),
            aggregates={"total": ("v", "sum")},
        )
        assert list(op) == []


class TestPipelines:
    def test_q6_through_the_engine(self, ibm):
        """Q6 via generic operators equals the dedicated operator."""
        from repro.core.ops.q6 import TpchQ6
        from repro.workloads.tpch import (
            Q6_DISCOUNT_HI,
            Q6_DISCOUNT_LO,
            Q6_QUANTITY_LT,
            Q6_SHIPDATE_HI,
            Q6_SHIPDATE_LO,
            lineitem_q6,
        )

        wl = lineitem_q6(scale_factor=10, scale=2**-8)
        scan_op = TableScan(wl.columns(), morsel_rows=8192)
        filtered = Filter(
            scan_op,
            lambda b: (
                (b["l_shipdate"] >= Q6_SHIPDATE_LO)
                & (b["l_shipdate"] < Q6_SHIPDATE_HI)
                & (b["l_discount"] >= np.float32(Q6_DISCOUNT_LO - 1e-6))
                & (b["l_discount"] <= np.float32(Q6_DISCOUNT_HI + 1e-6))
                & (b["l_quantity"] < Q6_QUANTITY_LT)
            ),
        )
        revenue = Project(
            filtered,
            {
                "rev": lambda b: b["l_extendedprice"].astype(np.float64)
                * b["l_discount"].astype(np.float64)
            },
        )
        result = collect(
            HashAggregate(revenue, (), {"revenue": ("rev", "sum")})
        )
        reference = TpchQ6(ibm, variant="predicated").run(wl, "cpu0")
        assert result["revenue"][0] == pytest.approx(reference.aggregate)

    def test_join_aggregate_pipeline(self, ibm, wl_a):
        """Join + aggregate equals the NOPA operator's aggregate."""
        from repro.core.join.nopa import NoPartitioningJoin

        joined = HashJoinOp(
            TableScan(wl_a.r), TableScan(wl_a.s), "key", "key"
        )
        total = collect(
            HashAggregate(
                joined, (), {"agg": ("build_payload", "sum")}
            )
        )
        reference = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        assert int(total["agg"][0]) == reference.aggregate

        # A filtered probe side: only even keys join (payload = 3 key + 1).
        even = HashJoinOp(
            TableScan(wl_a.r),
            Filter(TableScan(wl_a.s), lambda b: b["key"] % 2 == 0),
            "key",
            "key",
        )
        total = collect(HashAggregate(even, (), {"agg": ("build_payload", "sum")}))
        keys = wl_a.s.key[wl_a.s.key % 2 == 0].astype(np.int64)
        assert int(total["agg"][0]) == int((keys * 3 + 1).sum()) > 0
