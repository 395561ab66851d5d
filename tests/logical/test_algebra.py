"""The algebra validates eagerly: malformed queries fail at the call
site with an actionable message, and well-formed queries propagate
schemas exactly as the lowering will see them."""

import numpy as np
import pytest

from repro.costmodel.model import CostModel
from repro.data.relation import Relation
from repro.hardware import ibm_ac922
from repro.logical import (
    LogicalError,
    PhysicalConfig,
    Predicate,
    ScanStats,
    StarStats,
    column,
    compile_query,
    ge,
    lt,
    mul,
    scan,
)
from repro.logical.lower import JoinShape, ScanShape, StarShape, classify


def _relation(name="r", rows=64, modeled=None):
    return Relation(
        name=name,
        key=np.arange(rows, dtype=np.int64),
        payload=np.arange(rows, dtype=np.int64),
        modeled_tuples=modeled if modeled is not None else rows,
    )


def _columns(rows=64, **extra):
    data = {
        "key": np.arange(rows, dtype=np.int64),
        "value": np.arange(rows, dtype=np.float64),
    }
    data.update(extra)
    return data


# ----------------------------------------------------------------------
# Schema propagation
# ----------------------------------------------------------------------
def test_scan_exposes_relation_columns():
    query = scan(_relation())
    assert query.schema() == ("key", "payload")


def test_join_appends_prefixed_build_payloads():
    query = scan(_columns()).join(
        scan(_relation()), build_key="key", probe_key="key"
    )
    assert query.schema() == ("key", "value", "build_payload")


def test_filter_and_project_schemas():
    query = scan(_columns()).filter(ge("value", 3.0))
    assert query.schema() == ("key", "value")
    projected = query.project(twice=mul("value", "value"))
    assert projected.schema() == ("twice",)


def test_aggregate_schema_is_groups_plus_aggregates():
    query = scan(_columns()).aggregate(
        group_by=("key",), total=("value", "sum")
    )
    assert query.schema() == ("key", "total")


def test_describe_renders_the_tree():
    query = (
        scan(_columns(), name="probe")
        .join(scan(_relation()), build_key="key", probe_key="key")
        .aggregate(agg=("build_payload", "sum"))
    )
    text = query.describe()
    assert "Aggregate(agg=sum(build_payload))" in text
    assert "HashJoin(build.key == probe.key)" in text
    assert "Scan(probe" in text


# ----------------------------------------------------------------------
# Validation errors
# ----------------------------------------------------------------------
def test_join_output_collision_requires_distinct_prefix():
    probe = scan(_columns(build_payload=np.zeros(64)))
    with pytest.raises(LogicalError, match="distinct output_prefix"):
        probe.join(scan(_relation()), build_key="key", probe_key="key")
    # A per-join prefix resolves the collision.
    query = probe.join(
        scan(_relation()),
        build_key="key",
        probe_key="key",
        output_prefix="dim_",
    )
    assert query.schema()[-1] == "dim_payload"


def test_modeled_cardinality_below_executed_rejected():
    with pytest.raises(LogicalError, match="below executed"):
        scan(_columns(), modeled_rows=8)


def test_filter_unknown_column_rejected():
    with pytest.raises(LogicalError, match="unknown column"):
        scan(_columns()).filter(ge("missing", 1))


def test_join_unknown_keys_rejected():
    with pytest.raises(LogicalError, match="build key"):
        scan(_columns()).join(
            scan(_relation()), build_key="missing", probe_key="key"
        )
    with pytest.raises(LogicalError, match="probe key"):
        scan(_columns()).join(
            scan(_relation()), build_key="key", probe_key="missing"
        )


def test_selectivity_hints_validated():
    with pytest.raises(LogicalError, match=r"\[0, 1\]"):
        scan(_columns()).join(
            scan(_relation()),
            build_key="key",
            probe_key="key",
            selectivity=1.5,
        )
    with pytest.raises(LogicalError, match=r"\[0, 1\]"):
        Predicate("value", "ge", 1, selectivity=-0.1)


def test_predicate_op_validation():
    with pytest.raises(LogicalError, match="unknown predicate op"):
        Predicate("value", "like", 1)
    with pytest.raises(LogicalError, match="value and high"):
        Predicate("value", "between", 1)


def test_aggregate_validation():
    query = scan(_columns())
    with pytest.raises(LogicalError, match="unknown aggregate function"):
        query.aggregate(agg=("value", "median"))
    with pytest.raises(LogicalError, match="column '\\*'"):
        query.aggregate(n=("value", "count"))
    with pytest.raises(LogicalError, match="at least one aggregate"):
        query.aggregate()


def test_ragged_columns_rejected():
    with pytest.raises(LogicalError, match="ragged"):
        scan({"a": np.arange(4), "b": np.arange(5)})


def test_empty_scan_rejected():
    with pytest.raises(LogicalError, match="at least one column"):
        scan({})


def test_a_relation_carries_its_own_placement():
    """A dict of columns takes modeled rows, location and kind from
    ``scan``; a relation already has them, so giving them is an error
    rather than a silent override."""
    assert scan(_columns(), modeled_rows=640).node.modeled_rows == 640
    with pytest.raises(LogicalError, match="carries its own"):
        scan(_relation(), modeled_rows=640)
    with pytest.raises(LogicalError, match="carries its own"):
        scan(_relation(), location="cpu1-mem")


def test_projection_unknown_reference_rejected():
    with pytest.raises(LogicalError, match="unknown column"):
        scan(_columns()).project(out=column("missing"))


# ----------------------------------------------------------------------
# Shape classification (the lowering contract)
# ----------------------------------------------------------------------
def test_classify_scan_shape():
    query = (
        scan(_columns())
        .filter(ge("value", 3.0), lt("value", 60.0))
        .aggregate(total=("value", "sum"))
    )
    shape = classify(query)
    assert isinstance(shape, ScanShape)
    assert len(shape.predicates) == 2


def test_classify_join_shape():
    query = (
        scan(_columns())
        .join(scan(_relation()), build_key="key", probe_key="key")
        .aggregate(agg=("build_payload", "sum"))
    )
    shape = classify(query)
    assert isinstance(shape, JoinShape)
    assert shape.build.name == "r"


def test_classify_star_shape_preserves_dimension_order():
    query = scan(_columns(), name="fact")
    for i, dim in enumerate(("d1", "d2")):
        query = query.join(
            scan(_relation(name=dim)),
            build_key="key",
            probe_key="key",
            selectivity=0.5 * (i + 1),
            output_prefix=f"{dim}_",
        )
    shape = classify(query.aggregate(agg=("d1_payload", "sum")))
    assert isinstance(shape, StarShape)
    assert [dim_scan.name for dim_scan, _key, _sel in shape.dimensions] == [
        "d1",
        "d2",
    ]


def test_classify_rejects_filter_above_join():
    query = (
        scan(_columns())
        .join(scan(_relation()), build_key="key", probe_key="key")
        .filter(ge("value", 3.0))
        .aggregate(agg=("build_payload", "sum"))
    )
    with pytest.raises(LogicalError, match="filters above a join"):
        classify(query)


def test_classify_rejects_non_aggregate_root():
    with pytest.raises(LogicalError, match="end in an Aggregate"):
        classify(scan(_columns()))


# ----------------------------------------------------------------------
# Lowering validation: statistics and physical knobs fail loudly
# ----------------------------------------------------------------------
def _star_query():
    query = scan(_columns(), name="fact")
    for dim in ("d1", "d2"):
        query = query.join(
            scan(_relation(name=dim)),
            build_key="key",
            probe_key="key",
            output_prefix=f"{dim}_",
        )
    return query.aggregate(agg=("d1_payload", "sum"))


@pytest.mark.parametrize("survival", [(), (0.9,), (0.9, 0.9, 0.9)])
def test_star_stats_must_cover_every_dimension(survival):
    """A short ``survival_per_dim`` used to be zip()-truncated, silently
    dropping the missing dimensions' probe streams from the price."""
    config = PhysicalConfig(strategy="gpu+het", workers=("cpu0", "gpu0"))
    with pytest.raises(LogicalError, match=rf"{len(survival)} survival.* 2 dim"):
        compile_query(
            _star_query(), config, CostModel(ibm_ac922()), StarStats(survival)
        )


@pytest.mark.parametrize("fractions", [(), (1.0,), (1.0, 1.0, 1.0)])
def test_scan_stats_must_cover_every_column(fractions):
    """Same truncation on the scan side: a short
    ``column_line_fractions`` dropped whole columns from the read."""
    query = scan(_columns()).aggregate(total=("value", "sum"))
    with pytest.raises(LogicalError, match=rf"{len(fractions)} column.* 2 col"):
        compile_query(
            query, PhysicalConfig(), CostModel(ibm_ac922()), ScanStats(fractions)
        )


@pytest.mark.parametrize(
    "knobs, listed",
    [
        ({"variant": "brnching"}, "'predicated' or 'branching'"),
        ({"transfer_method": "nope"}, "zero_copy"),
        ({"strategy": "multi-gpu"}, "needs a workers tuple"),
    ],
)
def test_physical_config_rejects_unknown_knob_values(knobs, listed):
    """A misspelt variant used to price as predicated and an unknown
    transfer method failed only deep inside ``ingest``."""
    with pytest.raises(LogicalError, match=listed):
        PhysicalConfig(**knobs)
