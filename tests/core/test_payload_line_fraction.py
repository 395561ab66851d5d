"""Edge cases and properties of cache-line-granular payload skipping.

`payload_line_fraction` (Section 7.2.9) drives the Figure 15/20
selectivity results; these tests pin its boundary behaviour and prove
monotonicity in the match mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.join.nopa import payload_line_fraction
from repro.utils.units import LINE_BYTES


class TestEdgeCases:
    def test_empty_mask_is_zero(self):
        assert payload_line_fraction(np.zeros(0, dtype=bool), 8) == 0.0

    def test_mask_shorter_than_one_line(self):
        # 4 values of a 16-per-line column: one partial line.
        mask = np.zeros(4, dtype=bool)
        assert payload_line_fraction(mask, 8) == 0.0
        mask[2] = True
        assert payload_line_fraction(mask, 8) == 1.0

    def test_payload_wider_than_line_one_value_per_line(self):
        # payload_bytes > LINE_BYTES: every value occupies >= 1 line,
        # so the fraction equals the selectivity exactly.
        mask = np.array([True, False, True, False], dtype=bool)
        assert payload_line_fraction(mask, LINE_BYTES * 2) == pytest.approx(0.5)

    def test_payload_equal_to_line(self):
        mask = np.array([True, False], dtype=bool)
        assert payload_line_fraction(mask, LINE_BYTES) == pytest.approx(0.5)

    def test_partial_tail_line_counts_as_one_line(self):
        per_line = LINE_BYTES // 8
        # Two full lines plus a 1-value tail; only the tail matches.
        mask = np.zeros(2 * per_line + 1, dtype=bool)
        mask[-1] = True
        assert payload_line_fraction(mask, 8) == pytest.approx(1 / 3)

    def test_clustered_matches_cheaper_than_scattered(self):
        per_line = LINE_BYTES // 8
        n = 64 * per_line
        clustered = np.zeros(n, dtype=bool)
        clustered[:per_line] = True  # 16 matches in 1 line
        scattered = np.zeros(n, dtype=bool)
        scattered[np.arange(per_line) * per_line] = True  # 16 lines
        assert np.count_nonzero(clustered) == np.count_nonzero(scattered)
        assert payload_line_fraction(clustered, 8) < payload_line_fraction(
            scattered, 8
        )

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for selectivity in (0.0, 0.01, 0.5, 1.0):
            mask = rng.random(1000) < selectivity
            fraction = payload_line_fraction(mask, 8)
            assert 0.0 <= fraction <= 1.0
            # Line granularity can only add traffic, never remove it.
            assert fraction >= np.count_nonzero(mask) / len(mask) - 1e-12


@st.composite
def mask_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=512))
    return draw(arrays(np.bool_, n)), draw(arrays(np.bool_, n))


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(pair=mask_pairs(), payload_bytes=st.sampled_from([4, 8, 16, 128]))
    def test_more_matches_never_load_fewer_lines(self, pair, payload_bytes):
        mask_a, mask_b = pair
        combined = mask_a | mask_b
        fraction_a = payload_line_fraction(mask_a, payload_bytes)
        fraction_combined = payload_line_fraction(combined, payload_bytes)
        assert fraction_combined >= fraction_a - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(pair=mask_pairs())
    def test_fraction_within_unit_interval(self, pair):
        mask, _ = pair
        assert 0.0 <= payload_line_fraction(mask, 8) <= 1.0
