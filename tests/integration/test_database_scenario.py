"""End-to-end database scenario: a star join and a migrated join.

A miniature warehouse: a fact table and two dimensions as column
dicts; the star join agrees with plain numpy, and a join over the fact
table moved to the second socket streams across the X-Bus.
"""

import numpy as np
import pytest

import repro
from repro.core.join.multiway import Dimension, StarJoin
from repro.data.relation import Relation


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
