"""Workload validation checks."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.workloads.builders import (
    JoinWorkload,
    workload_a,
    workload_selectivity,
    workload_skewed,
)
from repro.workloads.validation import assert_valid, validate_workload
from repro.workloads.zipf import zipf_ranks

SCALE = 2.0**-14


class TestGeneratedWorkloadsPass:
    def test_workload_a(self):
        report = validate_workload(workload_a(scale=SCALE))
        assert report.ok, report.failures
        assert report.match_rate == 1.0

    @pytest.mark.parametrize("sel", [0.0, 0.5, 1.0])
    def test_selectivity_variants(self, sel):
        report = validate_workload(workload_selectivity(sel, scale=SCALE))
        assert report.ok, report.failures

    @pytest.mark.parametrize("z", [0.0, 1.5])
    def test_skew_variants(self, z):
        report = validate_workload(workload_skewed(z, scale=SCALE))
        assert report.ok, report.failures

    def test_assert_valid_passes(self):
        assert_valid(workload_a(scale=SCALE))


class TestRejectedParameters:
    @pytest.mark.parametrize("exponent", [-1.0, float("nan"), float("inf")])
    def test_bad_zipf_exponent_rejected(self, exponent):
        # Regression: these built uniform keys labelled "Zipf(...)".
        with pytest.raises(ValueError, match="Zipf exponent"):
            workload_skewed(exponent, scale=SCALE)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_zipf_ranks_rejects_non_finite_exponent(self, exponent):
        # Regression: a NaN exponent sampled all-zero ranks.
        with pytest.raises(ValueError, match="finite"):
            zipf_ranks(100, exponent, 10, np.random.default_rng(0))


class TestBrokenWorkloadsFail:
    def _workload(self, r_keys, s_keys, selectivity=1.0, zipf=0.0):
        r_keys = np.asarray(r_keys, dtype=np.int64)
        s_keys = np.asarray(s_keys, dtype=np.int64)
        return JoinWorkload(
            name="broken",
            r=Relation(name="R", key=r_keys, payload=r_keys.copy()),
            s=Relation(name="S", key=s_keys, payload=s_keys.copy()),
            selectivity=selectivity,
            zipf_exponent=zipf,
        )

    def test_duplicate_primary_keys_detected(self):
        wl = self._workload([0, 1, 1, 3], [0, 1])
        report = validate_workload(wl)
        assert not report.ok
        assert any("r-keys-unique" in f for f in report.failures)

    def test_sparse_domain_detected(self):
        wl = self._workload([0, 1, 2, 100], [0, 1])
        report = validate_workload(wl)
        assert any("r-keys-dense" in f for f in report.failures)

    def test_wrong_selectivity_detected(self):
        # Declared 1.0 but half the foreign keys miss.
        wl = self._workload(np.arange(10), [0, 1, 50, 60])
        report = validate_workload(wl)
        assert any("selectivity" in f for f in report.failures)
        assert report.match_rate == pytest.approx(0.5)

    def test_missing_skew_detected(self):
        # Declared zipf 1.5 but uniform keys over a large domain.
        n = 20_000
        rng = np.random.default_rng(0)
        wl = self._workload(
            np.arange(n), rng.integers(0, n, 100_000), zipf=1.5
        )
        report = validate_workload(wl)
        assert any("skew-concentration" in f for f in report.failures)

    def test_assert_valid_raises(self):
        wl = self._workload([0, 0], [0])
        with pytest.raises(AssertionError, match="r-keys-unique"):
            assert_valid(wl)

    def test_report_str(self):
        report = validate_workload(workload_a(scale=SCALE))
        assert "ok" in str(report)
