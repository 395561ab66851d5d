"""Zipf sampling and empirical hot-set profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.zipf import empirical_hot_mass, top_k_mass, zipf_ranks


class TestZipfRanks:
    def test_ranks_in_range(self):
        ranks = zipf_ranks(1000, 1.2, 10000, np.random.default_rng(1))
        assert ranks.min() >= 0
        assert ranks.max() < 1000

    def test_zero_exponent_uniform(self):
        rng = np.random.default_rng(2)
        ranks = zipf_ranks(100, 0.0, 100_000, rng)
        _, counts = np.unique(ranks, return_counts=True)
        assert counts.max() / counts.mean() < 1.5

    def test_rank_zero_is_hottest(self):
        rng = np.random.default_rng(3)
        ranks = zipf_ranks(1000, 1.5, 50_000, rng)
        values, counts = np.unique(ranks, return_counts=True)
        assert values[np.argmax(counts)] == 0

    def test_frequency_follows_power_law(self):
        rng = np.random.default_rng(4)
        ranks = zipf_ranks(10_000, 1.0, 500_000, rng)
        count0 = (ranks == 0).sum()
        count9 = (ranks == 9).sum()
        # pmf(0)/pmf(9) = 10 under exponent 1.0.
        assert count0 / max(count9, 1) == pytest.approx(10.0, rel=0.3)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            zipf_ranks(0, 1.0, 10, rng)
        with pytest.raises(ValueError):
            zipf_ranks(10, -1.0, 10, rng)
        with pytest.raises(ValueError):
            zipf_ranks(10, 1.0, -1, rng)

    def test_empty_sample(self):
        assert len(zipf_ranks(10, 1.0, 0, np.random.default_rng(0))) == 0


def searchsorted_ranks(n_items, exponent, size, rng):
    """Inverse-CDF sampling as ``zipf_ranks`` did before it merged the
    sorted draws against the CDF: each draw searched in the CDF."""
    weights = 1.0 / np.power(np.arange(1, n_items + 1, dtype=np.float64), exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size), side="right")


@settings(max_examples=100, deadline=None)
@given(
    n_items=st.integers(1, 5_000),
    # Exponents of 30 and more saturate the CDF to repeated 1.0s.
    exponent=st.one_of(
        st.floats(0.0, 2.0, exclude_min=True), st.floats(30.0, 80.0)
    ),
    size=st.integers(0, 20_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranks_equal_searchsorted_oracle(n_items, exponent, size, seed):
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    ranks = zipf_ranks(n_items, exponent, size, rng)
    want = searchsorted_ranks(n_items, exponent, size, oracle_rng)
    assert ranks.dtype == want.dtype
    assert np.array_equal(ranks, want)
    assert rng.random() == oracle_rng.random()


class TestEmpiricalHotMass:
    def test_matches_observed_frequencies(self):
        keys = np.array([0, 0, 0, 1, 1, 2])
        profile = empirical_hot_mass(keys)
        assert profile.distinct_targets == 3
        assert profile.mass_of_top(1) == pytest.approx(0.5)
        assert profile.mass_of_top(2) == pytest.approx(5 / 6)
        assert profile.mass_of_top(3) == 1.0

    def test_beyond_distinct_is_one(self):
        profile = empirical_hot_mass(np.array([1, 2, 3]))
        assert profile.mass_of_top(10) == 1.0

    def test_zero_is_zero(self):
        profile = empirical_hot_mass(np.array([1]))
        assert profile.mass_of_top(0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_hot_mass(np.array([]))

    def test_fractional_k_interpolates_linearly(self):
        # counts sorted descending: [3, 2, 1] of 6 accesses total
        profile = empirical_hot_mass(np.array([0, 0, 0, 1, 1, 2]))
        # halfway between mass(1)=1/2 and mass(2)=5/6
        assert profile.mass_of_top(1.5) == pytest.approx(2 / 3)
        # a quarter of the way between mass(2)=5/6 and mass(3)=1
        assert profile.mass_of_top(2.25) == pytest.approx(5 / 6 + 0.25 * 1 / 6)
        # fractional k below one interpolates from zero
        assert profile.mass_of_top(0.5) == pytest.approx(0.25)

    def test_fractional_k_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        profile = empirical_hot_mass(zipf_ranks(500, 1.2, 20_000, rng))
        ks = np.linspace(0.0, profile.distinct_targets + 2, 301)
        masses = [profile.mass_of_top(float(k)) for k in ks]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[0] == 0.0
        assert masses[-1] == 1.0

    def test_empirical_close_to_analytic(self):
        rng = np.random.default_rng(5)
        n = 10_000
        ranks = zipf_ranks(n, 1.5, 400_000, rng)
        empirical = empirical_hot_mass(ranks)
        analytic = top_k_mass(1.5, n, 100)
        assert empirical.mass_of_top(100) == pytest.approx(analytic, rel=0.05)
