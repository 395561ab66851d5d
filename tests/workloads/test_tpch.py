"""TPC-H lineitem generator for Q6."""

import numpy as np
import pytest

from repro.workloads.tpch import (
    MIN_EXECUTED_ROWS,
    Q6_DISCOUNT_HI,
    Q6_DISCOUNT_LO,
    Q6_QUANTITY_LT,
    Q6_SHIPDATE_HI,
    Q6_SHIPDATE_LO,
    ROWS_PER_SF,
    SHIPDATE_DAYS,
    _lineitem_columns,
    lineitem_q6,
)


class TestSizes:
    def test_modeled_rows_track_scale_factor(self):
        wl = lineitem_q6(scale_factor=100, scale=2**-10)
        assert wl.modeled_rows == 100 * ROWS_PER_SF

    def test_working_set_matches_paper(self):
        # SF 100 = 8.9 GiB, SF 1000 = 89.4 GiB (Section 7.2.4).
        wl = lineitem_q6(scale_factor=100, scale=2**-10)
        assert wl.modeled_bytes / 2**30 == pytest.approx(8.94, rel=0.01)
        wl = lineitem_q6(scale_factor=1000, scale=2**-10)
        assert wl.modeled_bytes / 2**30 == pytest.approx(89.4, rel=0.01)

    def test_sixteen_bytes_per_row(self):
        wl = lineitem_q6(scale_factor=1, scale=1.0)
        total = sum(c.dtype.itemsize for c in wl.columns().values())
        assert total == 16
        assert wl.modeled_bytes == wl.modeled_rows * 16

    def test_model_factor(self):
        wl = lineitem_q6(scale_factor=10, scale=2**-6)
        assert wl.model_factor == pytest.approx(
            wl.modeled_rows / wl.executed_rows
        )


class TestColumns:
    @pytest.fixture(scope="class")
    def wl(self):
        return lineitem_q6(scale_factor=1, scale=2**-4)

    def test_domains(self, wl):
        assert wl["l_shipdate"].min() >= 0
        assert wl["l_shipdate"].max() < SHIPDATE_DAYS
        assert wl["l_quantity"].min() >= 1
        assert wl["l_quantity"].max() <= 50
        assert wl["l_discount"].min() >= 0.0
        assert wl["l_discount"].max() <= 0.10 + 1e-6

    def test_discount_is_percent_steps(self, wl):
        cents = np.round(wl["l_discount"] * 100)
        assert np.allclose(wl["l_discount"], cents / 100, atol=1e-6)

    def test_shipdates_are_clustered(self, wl):
        # Sorted-with-jitter generation: a local window has a much
        # narrower date range than the full column.
        window = wl["l_shipdate"][:1024]
        assert window.max() - window.min() < SHIPDATE_DAYS / 3

    def test_q6_selectivity_near_paper(self, wl):
        qualifies = (
            (wl["l_shipdate"] >= Q6_SHIPDATE_LO)
            & (wl["l_shipdate"] < Q6_SHIPDATE_HI)
            & (wl["l_discount"] >= Q6_DISCOUNT_LO - 1e-6)
            & (wl["l_discount"] <= Q6_DISCOUNT_HI + 1e-6)
            & (wl["l_quantity"] < Q6_QUANTITY_LT)
        )
        # ~1/7 x 3/11 x 23/50 = 1.8%; the paper reports ~1.3%.
        assert 0.005 < qualifies.mean() < 0.035

    def test_zero_jitter_is_sorted(self):
        wl = lineitem_q6(scale_factor=1, scale=2**-6, shipdate_jitter_days=0)
        assert np.all(np.diff(wl["l_shipdate"]) >= 0)


class TestValidation:
    def test_bad_scale_factor(self):
        with pytest.raises(ValueError):
            lineitem_q6(scale_factor=0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="shipdate_jitter_days"):
            lineitem_q6(scale_factor=1, shipdate_jitter_days=-5)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            lineitem_q6(scale_factor=1, scale=0)

    def test_deterministic(self):
        a = lineitem_q6(scale_factor=1, scale=2**-6, seed=9)
        b = lineitem_q6(scale_factor=1, scale=2**-6, seed=9)
        assert np.array_equal(a["l_shipdate"], b["l_shipdate"])
        assert np.array_equal(a["l_extendedprice"], b["l_extendedprice"])


def reference_lineitem_columns(rows, seed, shipdate_jitter_days):
    """The generator ``_lineitem_columns`` replaced (int64 draws, a
    comparison sort, a per-row discount division).  Kept verbatim as
    the equivalence oracle."""
    rng = np.random.default_rng(seed)

    shipdate = rng.integers(0, SHIPDATE_DAYS, size=rows)
    shipdate.sort()
    if shipdate_jitter_days > 0:
        shipdate += rng.integers(
            -shipdate_jitter_days, shipdate_jitter_days + 1, size=rows
        )
        np.clip(shipdate, 0, SHIPDATE_DAYS - 1, out=shipdate)

    discount = (rng.integers(0, 11, size=rows) / 100.0).astype(np.float32)
    quantity = rng.integers(1, 51, size=rows).astype(np.int32)
    extendedprice = rng.random(rows, dtype=np.float32)
    extendedprice *= 90000.0
    extendedprice += 900.0
    return {
        "l_shipdate": shipdate.astype(np.int32),
        "l_discount": discount,
        "l_quantity": quantity,
        "l_extendedprice": extendedprice,
    }


@pytest.mark.parametrize("rows", [1, MIN_EXECUTED_ROWS, 12_345, 100_000])
@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("jitter", [0, 5, 60, 2000])
def test_generator_bytes_equal_reference(rows, seed, jitter):
    got = _lineitem_columns(rows, seed, jitter)
    want = reference_lineitem_columns(rows, seed, jitter)
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].tobytes() == array.tobytes(), name
