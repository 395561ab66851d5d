"""The one pricing loop every figure runs: ``price_series`` over a join's
``(r, s)`` and over the Q6 scan's ``(lineitem,)``."""

import numpy as np
import pytest

from repro.bench.common import Series, price_series
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.core.ops.q6 import TpchQ6
from repro.data.relation import ColumnTable
from repro.hardware.memory import MemoryKind
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.transfer.methods import UnsupportedTransferError
from repro.workloads.builders import workload_a
from repro.workloads.tpch import lineitem_q6


class Recording:
    """A facade that records the inputs each ``price`` call receives."""

    def __init__(self, facade):
        self.facade = facade
        self.transfer_method = facade.transfer_method
        self.inputs = []

    def price(self, execution, *inputs, **kwargs):
        self.inputs.append(inputs)
        return self.facade.price(execution, *inputs, **kwargs)


def join_case(machine, transfer_method):
    workload = workload_a(scale=2.0**-16)
    inputs = (workload.r, workload.s)
    join = NoPartitioningJoin(machine, transfer_method=transfer_method)
    return join, join.execute(*inputs), inputs


def scan_case(machine, transfer_method):
    lineitem = lineitem_q6(1.0)
    q6 = TpchQ6(machine, variant="branching", transfer_method=transfer_method)
    return q6, q6.execute(lineitem), (lineitem,)


CASES = [pytest.param(join_case, id="join"), pytest.param(scan_case, id="q6")]


@pytest.mark.parametrize("case", CASES)
def test_zero_copy_reallocates_every_input_as_pinned(case):
    facade, execution, inputs = case(intel_xeon_v100(), "zero_copy")
    recording = Recording(facade)
    results = price_series(execution, inputs, [Series("pcie3", recording)])
    (placed,) = recording.inputs
    assert len(placed) == len(inputs)
    for table, original in zip(placed, inputs):
        assert table.kind is MemoryKind.PINNED
        assert table.location == original.location
        assert all(
            a is b for a, b in zip(table.columns().values(), original.columns().values())
        )
        assert original.kind is MemoryKind.PAGEABLE  # the inputs stay as given
    assert results == {"pcie3": facade.price(execution, *placed)}


@pytest.mark.parametrize("case", CASES)
def test_pageable_inputs_cannot_run_zero_copy(case):
    """What the re-allocation buys: the same inputs priced as generated
    are refused by Table 1."""
    facade, execution, inputs = case(intel_xeon_v100(), "zero_copy")
    with pytest.raises(UnsupportedTransferError, match="requires pinned source memory"):
        facade.price(execution, *inputs)


def test_location_moves_every_input():
    join, execution, inputs = join_case(ibm_ac922(), "coherence")
    recording = Recording(join)
    price_series(execution, inputs, [Series("remote", recording, {}, "cpu1-mem")])
    assert [table.location for table in recording.inputs[0]] == ["cpu1-mem"] * 2


def test_facade_without_transfer_method_keeps_inputs():
    workload = workload_a(scale=2.0**-16)
    inputs = (workload.r, workload.s)
    radix = RadixJoin(ibm_ac922())
    execution = radix.execute(*inputs)
    results = price_series(execution, inputs, [Series("cpu", radix, {}, "cpu1-mem")])
    assert results == {"cpu": radix.price(execution, *inputs)}


def test_unsupported_configuration_leaves_no_cell():
    """Coherence needs a cache-coherent interconnect; PCI-e 3.0 has none."""
    intel = intel_xeon_v100()
    _q6, execution, inputs = scan_case(ibm_ac922(), "coherence")
    results = price_series(execution, inputs, [
        Series("pcie3-coherence", TpchQ6(intel, transfer_method="coherence")),
        Series("pcie3-zero-copy", TpchQ6(intel, transfer_method="zero_copy")),
    ])
    assert list(results) == ["pcie3-zero-copy"]


def test_later_series_of_the_same_name_stands_in():
    intel = intel_xeon_v100()
    _q6, execution, inputs = scan_case(ibm_ac922(), "coherence")
    zero_copy = TpchQ6(intel, transfer_method="zero_copy")
    results = price_series(execution, inputs, [
        Series("pcie3", TpchQ6(intel, transfer_method="coherence")),
        Series("pcie3", zero_copy),
    ])
    assert list(results) == ["pcie3"]
    alone = price_series(execution, inputs, [Series("pcie3", zero_copy)])
    assert results == alone
    # A series that ran keeps its cell: the later one is not priced.
    never = Recording(TpchQ6(intel, transfer_method="zero_copy"))
    first = price_series(
        execution, inputs, [Series("pcie3", zero_copy), Series("pcie3", never)]
    )
    assert first == alone
    assert never.inputs == []


@pytest.mark.parametrize(
    "columns, modeled_rows, match",
    [
        ({"a": np.arange(4), "b": np.arange(5)}, None, "ragged columns"),
        ({}, None, "at least one column"),
        ({"a": np.arange(4)}, 3, "modeled cardinality 3 below executed cardinality 4"),
    ],
    ids=["ragged", "empty", "under-modeled"],
)
def test_column_table_rejects_bad_shapes(columns, modeled_rows, match):
    with pytest.raises(ValueError, match=match):
        ColumnTable("lineitem", columns, modeled_rows)

