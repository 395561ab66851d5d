"""Cache-line-granular selection cascades."""

import numpy as np
import pytest

from repro.core.join.nopa import payload_line_fraction
from repro.core.ops.selection import line_any, selection_line_fractions
from repro.utils.units import LINE_BYTES


class TestLineAny:
    def test_basic(self):
        mask = np.array([0, 0, 1, 0, 0, 0, 0, 0], dtype=bool)
        lines = line_any(mask, values_per_line=4)
        assert list(lines) == [True, False]

    def test_partial_tail(self):
        mask = np.array([0, 0, 0, 0, 1], dtype=bool)
        lines = line_any(mask, values_per_line=4)
        assert list(lines) == [False, True]

    def test_empty(self):
        assert len(line_any(np.zeros(0, dtype=bool), 4)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            line_any(np.zeros(4, dtype=bool), 0)


def reference_line_any(mask, values_per_line):
    """The reshape-and-reduce kernel ``line_any`` had before it learnt to
    OR whole words."""
    n = len(mask)
    full = n // values_per_line
    lines = []
    if full:
        head = mask[: full * values_per_line].reshape(full, values_per_line)
        lines.append(head.any(axis=1))
    tail = mask[full * values_per_line :]
    if len(tail):
        lines.append(np.array([tail.any()]))
    if not lines:
        return np.zeros(0, dtype=bool)
    return np.concatenate(lines)


def reference_fractions(masks, value_bytes):
    per_line = max(1, LINE_BYTES // value_bytes)
    fractions = [1.0]
    alive = masks[0]
    for mask in masks[1:]:
        lines = reference_line_any(alive, per_line)
        fractions.append(float(lines.mean()) if len(lines) else 0.0)
        alive = alive & mask
    lines = reference_line_any(alive, per_line)
    fractions.append(float(lines.mean()) if len(lines) else 0.0)
    return fractions


def random_masks(seed, count=40):
    """Masks of every length class: empty, shorter than a line, whole
    lines and ragged tails; sparse, dense and clustered."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([0, 1, 7, 64, 129, 1000, 4096, 5003]))
        kind = rng.integers(3)
        if kind == 0:
            mask = rng.random(n) < rng.choice([0.001, 0.05, 0.5, 0.99])
        elif kind == 1:
            mask = np.zeros(n, dtype=bool)
            start = int(rng.integers(0, n + 1))
            mask[start : start + int(rng.integers(0, 300))] = True
        else:
            mask = np.full(n, bool(rng.integers(2)))
        yield mask


VALUES_PER_LINE = (1, 3, 5, 8, 16, 32, 64)


class TestWordwiseEquivalence:
    """The word-wise OR equals the reshape-any kernel on every layout."""

    @pytest.mark.parametrize("values_per_line", VALUES_PER_LINE)
    def test_contiguous_masks(self, values_per_line):
        for mask in random_masks(values_per_line):
            got = line_any(mask, values_per_line)
            assert got.dtype == bool
            assert np.array_equal(got, reference_line_any(mask, values_per_line))

    @pytest.mark.parametrize("values_per_line", VALUES_PER_LINE)
    def test_non_contiguous_and_unaligned_masks(self, values_per_line):
        for base in random_masks(100 + values_per_line):
            wide = np.repeat(base, 2)
            for mask in (
                wide[::2],  # strided view
                np.stack([base, ~base], axis=1)[:, 0],  # a column
                base[3:],  # contiguous, not word-aligned
                base[::-1],  # negative stride
            ):
                assert np.array_equal(
                    line_any(mask, values_per_line),
                    reference_line_any(mask, values_per_line),
                )

    def test_wide_non_bool_mask(self):
        # Words hold 8 bools but only 2 int32 values: no word-wise OR.
        mask = np.zeros(24, dtype=np.int32)
        mask[[7, 20]] = 3
        assert list(line_any(mask, 8)) == [True, False, True]

    @pytest.mark.parametrize("value_bytes", (1, 2, 4, 8, 16))
    def test_fractions_equal_exactly(self, value_bytes):
        rng = np.random.default_rng(value_bytes)
        for first in random_masks(200 + value_bytes, count=20):
            masks = [first] + [rng.random(len(first)) < 0.4 for _ in range(3)]
            assert selection_line_fractions(
                masks, value_bytes=value_bytes
            ) == reference_fractions(masks, value_bytes=value_bytes)

    def test_payload_line_fraction_equals_mean(self):
        for payload_bytes in (4, 8):
            per_line = LINE_BYTES // payload_bytes
            for mask in random_masks(300 + payload_bytes):
                want = (
                    float(reference_line_any(mask, per_line).mean())
                    if len(mask) else 0.0
                )
                assert payload_line_fraction(mask, payload_bytes) == want


class TestSelectionFractions:
    def test_first_column_always_full(self):
        masks = [np.zeros(64, dtype=bool)]
        fractions = selection_line_fractions(masks, value_bytes=4)
        assert fractions[0] == 1.0

    def test_all_pass_cascade(self):
        masks = [np.ones(128, dtype=bool)] * 3
        fractions = selection_line_fractions(masks, value_bytes=4)
        assert fractions == [1.0, 1.0, 1.0, 1.0]

    def test_nothing_passes_first_predicate(self):
        masks = [np.zeros(128, dtype=bool), np.ones(128, dtype=bool)]
        fractions = selection_line_fractions(masks, value_bytes=4)
        assert fractions[1] == 0.0
        assert fractions[2] == 0.0

    def test_clustered_beats_scattered(self):
        n = 32 * 64
        clustered = np.zeros(n, dtype=bool)
        clustered[: n // 8] = True  # one contiguous run
        rng = np.random.default_rng(0)
        scattered = np.zeros(n, dtype=bool)
        scattered[rng.choice(n, n // 8, replace=False)] = True
        f_clustered = selection_line_fractions([clustered, clustered])
        f_scattered = selection_line_fractions([scattered, scattered])
        assert f_clustered[1] < f_scattered[1]

    def test_cascade_monotone(self):
        rng = np.random.default_rng(1)
        masks = [rng.random(32 * 100) < p for p in (0.3, 0.5, 0.5)]
        fractions = selection_line_fractions(masks, value_bytes=4)
        assert fractions[1] >= fractions[2] >= fractions[3]

    def test_requires_masks(self):
        with pytest.raises(ValueError):
            selection_line_fractions([])

    def test_returns_one_extra_fraction_for_aggregates(self):
        masks = [np.ones(32, dtype=bool)] * 2
        fractions = selection_line_fractions(masks)
        assert len(fractions) == 3  # 2 predicate columns + aggregate tail
