"""Multi-way star joins (Section 6.2's extension)."""

import numpy as np
import pytest

from repro.core.join.multiway import Dimension, StarJoin
from repro.data.relation import Relation
from repro.memory.allocator import OutOfMemoryError


def make_dimension(name, n, match_fraction=1.0, seed=0):
    """A dimension with n rows; the fact references 1/match_fraction of
    the domain so ``match_fraction`` of fact keys find a match."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    return Relation(
        name=name, key=keys, payload=(keys * 5 + 2).astype(np.int64)
    )


def make_fact(n_rows, dims, match_fractions, seed=1):
    rng = np.random.default_rng(seed)
    fact = {}
    for (name, dim), fraction in zip(dims.items(), match_fractions):
        domain = dim.executed_tuples
        keys = rng.integers(0, domain, n_rows).astype(np.int64)
        miss = rng.random(n_rows) >= fraction
        keys[miss] = domain + rng.integers(0, domain, int(miss.sum()))
        fact[name] = keys
    return fact


@pytest.fixture
def star():
    dims = {
        "d1_key": make_dimension("d1", 1000, seed=2),
        "d2_key": make_dimension("d2", 500, seed=3),
    }
    fact = make_fact(20_000, dims, (0.8, 0.5))
    dimensions = [
        Dimension(relation=dims["d1_key"], fact_key="d1_key"),
        Dimension(relation=dims["d2_key"], fact_key="d2_key"),
    ]
    return fact, dimensions, dims


class TestFunctional:
    def test_survivors_match_numpy_reference(self, ibm, star):
        fact, dimensions, dims = star
        res = StarJoin(ibm).run(fact, dimensions)
        alive = np.ones(len(fact["d1_key"]), dtype=bool)
        for name, dim in dims.items():
            alive &= np.isin(fact[name], dim.key)
        assert res.survivors == int(alive.sum())

    def test_aggregate_sums_dimension_payloads(self, ibm):
        dim = make_dimension("d", 100)
        fact = {"k": np.arange(100, dtype=np.int64)}
        res = StarJoin(ibm).run(
            fact, [Dimension(relation=dim, fact_key="k")]
        )
        assert res.survivors == 100
        assert res.aggregate == int((np.arange(100) * 5 + 2).sum())

    def test_measure_column_aggregation(self, ibm):
        dim = make_dimension("d", 50)
        fact = {"k": np.arange(50, dtype=np.int64)}
        measure = np.full(50, 7, dtype=np.int64)
        res = StarJoin(ibm).run(
            fact, [Dimension(relation=dim, fact_key="k")], measure=measure
        )
        assert res.aggregate == 350

    def test_missing_fact_key_rejected(self, ibm, star):
        fact, dimensions, _ = star
        bad = [Dimension(relation=dimensions[0].relation, fact_key="ghost")]
        with pytest.raises(ValueError):
            StarJoin(ibm).run(fact, bad)

    def test_needs_dimensions(self, ibm, star):
        fact, _, __ = star
        with pytest.raises(ValueError):
            StarJoin(ibm).run(fact, [])

    def test_ragged_fact_rejected(self, ibm, star):
        _, dimensions, __ = star
        with pytest.raises(ValueError):
            StarJoin(ibm).run(
                {"d1_key": np.arange(3), "d2_key": np.arange(4)}, dimensions
            )

    def test_zero_modeled_fact_rejected(self, ibm, star):
        """A modeled fact cardinality below the executed rows raises;
        zero does not fall back to pricing the executed rows."""
        fact, dimensions, _ = star
        with pytest.raises(ValueError, match="modeled cardinality 0"):
            StarJoin(ibm).run(fact, dimensions, modeled_fact=0)


class TestModel:
    def test_builders_assigned_round_robin(self, ibm, star):
        fact, dimensions, _ = star
        res = StarJoin(ibm).run(fact, dimensions, workers=("cpu0", "gpu0"))
        assert res.builder_of["d1_key"] == "cpu0"
        assert res.builder_of["d2_key"] == "gpu0"

    def test_parallel_build_faster_than_serial(self, ibm, star):
        """Building on two processors beats one (the Section 6.2 point)."""
        fact, dimensions, dims = star
        big_dims = [
            Dimension(
                relation=Relation(
                    name=d.relation.name,
                    key=d.relation.key,
                    payload=d.relation.payload,
                    modeled_tuples=50_000_000,
                ),
                fact_key=d.fact_key,
            )
            for d in dimensions
        ]
        two = StarJoin(ibm).run(
            fact, big_dims, workers=("gpu0", "gpu1"), modeled_fact=10**9
        )
        one = StarJoin(ibm).run(
            fact, big_dims, workers=("gpu0",), modeled_fact=10**9
        )
        # The builds themselves parallelize (~2x); the broadcast is the
        # price of replication and is reported separately.
        assert two.build_seconds < 0.7 * one.build_seconds
        assert one.broadcast_seconds == 0.0
        assert two.broadcast_seconds > 0.0

    def test_oversized_replication_rejected(self, ibm):
        huge = Relation(
            name="huge",
            key=np.arange(64, dtype=np.int64),
            payload=np.arange(64, dtype=np.int64),
            modeled_tuples=2 * 10**9,  # 32 GB > GPU memory
        )
        fact = {"k": np.arange(64, dtype=np.int64)}
        with pytest.raises(OutOfMemoryError):
            StarJoin(ibm).run(fact, [Dimension(relation=huge, fact_key="k")])

    def test_more_dimensions_cost_more_probe_time(self, ibm, star):
        fact, dimensions, _ = star
        join = StarJoin(ibm)
        one = join.run(fact, dimensions[:1], modeled_fact=10**9)
        two = join.run(fact, dimensions, modeled_fact=10**9)
        assert two.probe_seconds > one.probe_seconds

    def test_throughput_positive(self, ibm, star):
        fact, dimensions, _ = star
        res = StarJoin(ibm).run(fact, dimensions, modeled_fact=10**9)
        assert res.throughput_gtuples > 0
        assert res.runtime == (
            res.build_seconds + res.broadcast_seconds + res.probe_seconds
        )
