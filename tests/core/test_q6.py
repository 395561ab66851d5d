"""TPC-H Q6 operator (branching and predicated variants)."""

import numpy as np
import pytest

from repro.core.ops.q6 import TpchQ6
from repro.hardware.memory import MemoryKind
from repro.workloads.tpch import (
    Q6_DISCOUNT_HI,
    Q6_DISCOUNT_LO,
    Q6_QUANTITY_LT,
    Q6_SHIPDATE_HI,
    Q6_SHIPDATE_LO,
    lineitem_q6,
)


@pytest.fixture(scope="module")
def workload():
    return lineitem_q6(scale_factor=100, scale=2**-10, seed=11)


class TestFunctional:
    def test_revenue_matches_reference(self, ibm, workload):
        mask = (
            (workload.shipdate >= Q6_SHIPDATE_LO)
            & (workload.shipdate < Q6_SHIPDATE_HI)
            & (workload.discount >= np.float32(Q6_DISCOUNT_LO - 1e-6))
            & (workload.discount <= np.float32(Q6_DISCOUNT_HI + 1e-6))
            & (workload.quantity < Q6_QUANTITY_LT)
        )
        expected = float(
            (
                workload.extendedprice[mask].astype(np.float64)
                * workload.discount[mask].astype(np.float64)
            ).sum()
        )
        res = TpchQ6(ibm, variant="predicated").run(workload, processor="cpu0")
        assert res.aggregate == pytest.approx(expected)
        assert res.qualifying_rows == int(mask.sum())

    def test_both_variants_compute_identical_results(self, ibm, workload):
        branching = TpchQ6(ibm, variant="branching").run(workload, "gpu0")
        predicated = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        assert branching.aggregate == pytest.approx(predicated.aggregate)
        assert branching.qualifying_rows == predicated.qualifying_rows

    def test_selectivity_low(self, ibm, workload):
        res = TpchQ6(ibm, variant="predicated").run(workload, "cpu0")
        assert res.selectivity < 0.05

    def test_unknown_variant_rejected(self, ibm):
        with pytest.raises(ValueError):
            TpchQ6(ibm, variant="vectorized")


class TestColumnFractions:
    def test_predicated_loads_everything(self, ibm, workload):
        res = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        assert res.column_line_fractions == [1.0, 1.0, 1.0, 1.0]

    def test_branching_skips_later_columns(self, ibm, workload):
        res = TpchQ6(ibm, variant="branching").run(workload, "gpu0")
        fractions = res.column_line_fractions
        assert fractions[0] == 1.0
        assert all(f < 1.0 for f in fractions[1:])
        # The cascade can only shrink.
        assert fractions[1] >= fractions[2] >= fractions[3]

    def test_unclustered_data_defeats_skipping(self, ibm):
        scattered = lineitem_q6(
            scale_factor=100, scale=2**-10, shipdate_jitter_days=2000
        )
        clustered = lineitem_q6(
            scale_factor=100, scale=2**-10, shipdate_jitter_days=0
        )
        res_s = TpchQ6(ibm, variant="branching").run(scattered, "gpu0")
        res_c = TpchQ6(ibm, variant="branching").run(clustered, "gpu0")
        assert res_c.column_line_fractions[1] < res_s.column_line_fractions[1]


class TestPerformanceShapes:
    """Figure 15's qualitative claims."""

    def test_cpu_predicated_is_overall_best(self, ibm, intel, workload):
        cpu = TpchQ6(ibm, variant="predicated").run(workload, "cpu0")
        nv_b = TpchQ6(ibm, variant="branching").run(workload, "gpu0")
        nv_p = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        assert cpu.throughput_gtuples > nv_b.throughput_gtuples
        assert cpu.throughput_gtuples > nv_p.throughput_gtuples

    def test_branching_beats_predication_on_gpu(self, ibm, workload):
        branching = TpchQ6(ibm, variant="branching").run(workload, "gpu0")
        predicated = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        assert branching.throughput_gtuples > predicated.throughput_gtuples

    def test_predication_beats_branching_on_cpu(self, ibm, workload):
        branching = TpchQ6(ibm, variant="branching").run(workload, "cpu0")
        predicated = TpchQ6(ibm, variant="predicated").run(workload, "cpu0")
        assert predicated.throughput_gtuples > branching.throughput_gtuples

    def test_nvlink_multiples_over_pcie(self, ibm, intel, workload):
        nv = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        pinned = workload.placed(workload.location, kind=MemoryKind.PINNED)
        pcie = TpchQ6(
            intel, variant="predicated", transfer_method="zero_copy"
        ).run(pinned, "gpu0")
        ratio = nv.throughput_gtuples / pcie.throughput_gtuples
        assert 3 < ratio < 12  # paper: up to 9.8x

    def test_gpu_scan_is_interconnect_bound(self, ibm, workload):
        res = TpchQ6(ibm, variant="predicated").run(workload, "gpu0")
        assert res.cost.bottleneck.startswith("link:nvlink2")

    def test_throughput_flat_across_scale_factors(self, ibm):
        t = []
        for sf in (100, 1000):
            wl = lineitem_q6(scale_factor=sf, scale=2**-10)
            t.append(
                TpchQ6(ibm, variant="predicated")
                .run(wl, "gpu0")
                .throughput_gtuples
            )
        assert t[0] == pytest.approx(t[1], rel=0.05)
