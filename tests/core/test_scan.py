"""The generic selection-scan operator."""

import numpy as np
import pytest

from repro.core.ops.scan import Predicate, ScanResult, SelectionScan
from repro.logical import LogicalError


def make_columns(n=50_000, clustered=True, seed=0):
    rng = np.random.default_rng(seed)
    if clustered:
        a = np.sort(rng.integers(0, 100, n)).astype(np.int32)
    else:
        a = rng.integers(0, 100, n).astype(np.int32)
    return {
        "a": a,
        "b": rng.integers(0, 10, n).astype(np.int32),
        "x": rng.random(n).astype(np.float32),
    }


def make_scan(machine, variant="predicated", threshold=20):
    return SelectionScan(
        machine,
        predicates=[
            Predicate("a", lambda col: col < threshold, "a < t"),
            Predicate("b", lambda col: col < 5, "b < 5"),
        ],
        aggregate_columns=["x"],
        aggregate=lambda cols: float(cols["x"].astype(np.float64).sum()),
        variant=variant,
    )


class TestFunctional:
    def test_aggregate_matches_numpy(self, ibm):
        columns = make_columns()
        res = make_scan(ibm).run(columns, processor="cpu0")
        mask = (columns["a"] < 20) & (columns["b"] < 5)
        assert res.aggregate == pytest.approx(
            float(columns["x"][mask].astype(np.float64).sum())
        )
        assert res.qualifying_rows == int(mask.sum())

    def test_variants_agree_functionally(self, ibm):
        columns = make_columns()
        branching = make_scan(ibm, "branching").run(columns)
        predicated = make_scan(ibm, "predicated").run(columns)
        assert branching.aggregate == pytest.approx(predicated.aggregate)

    def test_empty_survivors(self, ibm):
        columns = make_columns()
        res = make_scan(ibm, threshold=-1).run(columns)
        assert res.aggregate == 0.0
        assert res.qualifying_rows == 0

    def test_missing_column_rejected(self, ibm):
        with pytest.raises(KeyError):
            make_scan(ibm).run({"a": np.arange(4, dtype=np.int32)})

    def test_ragged_rejected(self, ibm):
        columns = make_columns(100)
        columns["x"] = columns["x"][:50]
        with pytest.raises(ValueError):
            make_scan(ibm).run(columns)

    def test_validation(self, ibm):
        with pytest.raises(ValueError):
            SelectionScan(ibm, [], [], lambda c: 0.0)
        with pytest.raises(ValueError):
            make_scan(ibm, variant="simd")


class TestModel:
    def test_branching_loads_fewer_bytes_when_clustered(self, ibm):
        columns = make_columns(clustered=True)
        branching = make_scan(ibm, "branching").run(
            columns, processor="gpu0", modeled_rows=10**9
        )
        predicated = make_scan(ibm, "predicated").run(
            columns, processor="gpu0", modeled_rows=10**9
        )
        assert branching.throughput_gtuples > predicated.throughput_gtuples
        assert all(f <= 1.0 for f in branching.column_line_fractions)
        assert branching.column_line_fractions[1] < 1.0

    def test_unclustered_weakens_branching(self, ibm):
        clustered = make_scan(ibm, "branching").run(
            make_columns(clustered=True), processor="gpu0", modeled_rows=10**9
        )
        scattered = make_scan(ibm, "branching").run(
            make_columns(clustered=False), processor="gpu0", modeled_rows=10**9
        )
        assert clustered.throughput_gtuples > scattered.throughput_gtuples

    def test_fraction_count_matches_columns(self, ibm):
        res = make_scan(ibm, "branching").run(make_columns())
        assert len(res.column_line_fractions) == 3  # 2 predicates + 1 agg

    def test_modeled_rows_priced(self, ibm):
        small = make_scan(ibm).run(
            make_columns(), processor="gpu0", modeled_rows=10**8
        )
        large = make_scan(ibm).run(
            make_columns(), processor="gpu0", modeled_rows=10**9
        )
        assert large.runtime == pytest.approx(10 * small.runtime, rel=0.05)

    @pytest.mark.parametrize("modeled_rows", [0, -5])
    def test_modeled_rows_below_executed_rejected(self, ibm, modeled_rows):
        """Only ``None`` means "price the executed rows"; 0 is a
        cardinality, and below the executed one."""
        with pytest.raises(LogicalError, match=f"modeled cardinality {modeled_rows} "):
            make_scan(ibm).run(make_columns(), modeled_rows=modeled_rows)
