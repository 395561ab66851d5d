"""End-to-end database scenario: engine -> joins.

A miniature warehouse: a fact table and two dimensions as column
dicts; queries run both through the generic engine and the specialized
star join, and both agree with plain numpy.
"""

import numpy as np
import pytest

import repro
from repro.core.join.multiway import Dimension, StarJoin
from repro.data.relation import Relation
from repro.engine import Filter, HashAggregate, HashJoinOp, TableScan, collect


@pytest.fixture
def warehouse():
    rng = np.random.default_rng(21)
    n_products, n_stores, n_sales = 400, 50, 30_000
    return {
        "products": {
            "id": np.arange(n_products, dtype=np.int64),
            "price": rng.integers(1, 100, n_products).astype(np.int64),
        },
        "stores": {
            "id": np.arange(n_stores, dtype=np.int64),
            "region": rng.integers(0, 4, n_stores).astype(np.int64),
        },
        "sales": {
            "product_id": rng.integers(0, n_products, n_sales).astype(np.int64),
            "store_id": rng.integers(0, n_stores, n_sales).astype(np.int64),
            "quantity": rng.integers(1, 10, n_sales).astype(np.int64),
        },
    }


def relation(warehouse, table, key, payload, location="cpu0-mem"):
    columns = warehouse[table]
    return Relation(table, columns[key], columns[payload], location=location)


class TestWarehouse:
    def test_engine_two_dim_query(self, warehouse):
        """revenue per region via the generic operator pipeline."""
        sales = warehouse["sales"]
        products = warehouse["products"]
        stores = warehouse["stores"]

        with_price = HashJoinOp(
            TableScan(products), TableScan(sales, 4096),
            build_key="id", probe_key="product_id",
        )
        with_region = HashJoinOp(
            TableScan(stores), with_price,
            build_key="id", probe_key="store_id",
        )
        result = collect(
            HashAggregate(
                Filter(with_region, lambda b: b["quantity"] >= 2),
                group_by=("build_region",),
                aggregates={"units": ("quantity", "sum")},
            )
        )

        # Reference with plain numpy.
        s, st = sales, stores
        keep = s["quantity"] >= 2
        regions = st["region"][s["store_id"][keep]]
        for region, units in zip(result["build_region"], result["units"]):
            mask = regions == region
            assert units == s["quantity"][keep][mask].sum()

    def test_star_join_agrees_with_engine(self, warehouse, ibm):
        sales = warehouse["sales"]
        fact = {
            "product_id": sales["product_id"],
            "store_id": sales["store_id"],
        }
        dims = [
            Dimension(
                relation=relation(warehouse, "products", "id", "price"),
                fact_key="product_id",
            ),
            Dimension(
                relation=relation(warehouse, "stores", "id", "region"),
                fact_key="store_id",
            ),
        ]
        star = StarJoin(ibm).run(fact, dims, measure=sales["quantity"])
        # Every fact row matches both dimensions (dense FK domains).
        assert star.survivors == len(sales["quantity"])
        assert star.aggregate == int(sales["quantity"].sum())

    def test_migrate_then_query(self, warehouse, ibm):
        """The fact table moved to the second socket's memory, then
        queried from the GPU."""
        sales = relation(
            warehouse, "sales", "product_id", "quantity", location="cpu1-mem"
        )
        products = relation(warehouse, "products", "id", "price")
        res = repro.NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            products, sales
        )
        assert res.matches == len(warehouse["sales"]["quantity"])
        # The probe now streams over two hops (NVLink + X-Bus).
        assert any("xbus" in key for key in res.probe_cost.occupancy)
