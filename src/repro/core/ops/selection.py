"""Cache-line-granular column skipping for cascaded selections.

A branching (short-circuit) scan evaluates predicates in sequence and
only loads a later column's cache line when some row in that line is
still alive.  With clustered data (TPC-H shipdates), long runs of rows
fail the first predicate together and entire lines of the remaining
columns are skipped — the effect behind Figure 15's counterintuitive
"branching beats predication on the GPU" result.

:func:`selection_line_fractions` measures, for a conjunctive predicate
cascade, the fraction of each column's cache lines a branching scan
must load.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.units import LINE_BYTES


def line_any(mask: np.ndarray, values_per_line: int) -> np.ndarray:
    """Per-line OR of a row mask (which lines have a surviving row)."""
    if values_per_line <= 0:
        raise ValueError(f"values per line must be positive: {values_per_line}")
    full, rest = divmod(len(mask), values_per_line)
    lines = np.empty(full + (rest > 0), dtype=bool)
    head = mask[: full * values_per_line]
    words_per_line, odd = divmod(values_per_line, 8)
    if full and not odd and mask.dtype == bool and head.flags.c_contiguous:
        # A line of 8k bools is k uint64 words; OR the k strided word
        # columns instead of reducing each line's bytes.
        words = head.view(np.uint64)
        acc = words[::words_per_line].copy()
        for j in range(1, words_per_line):
            acc |= words[j::words_per_line]
        np.not_equal(acc, 0, out=lines[:full])
    elif full:
        head.reshape(full, values_per_line).any(axis=1, out=lines[:full])
    if rest:
        lines[full] = mask[full * values_per_line :].any()
    return lines


def line_fraction(mask: np.ndarray, values_per_line: int) -> float:
    """Fraction of lines with a surviving row (0.0 for an empty mask)."""
    lines = line_any(mask, values_per_line)
    return np.count_nonzero(lines) / len(lines) if len(lines) else 0.0


def selection_line_fractions(
    masks: Sequence[np.ndarray],
    value_bytes: int = 4,
    line_bytes: int = LINE_BYTES,
) -> List[float]:
    """Line-load fraction of each column in a branching cascade.

    ``masks[i]`` is the row mask of predicate ``i`` alone.  Column 0 is
    always fully read; column ``i`` is read at line granularity where
    any row of the line survived predicates ``0..i-1``.

    Returns one fraction per column (len(masks) columns are predicate
    columns; append the returned tail fraction for any aggregate-only
    columns read after the full cascade).
    """
    if not masks:
        raise ValueError("need at least one predicate mask")
    per_line = max(1, line_bytes // value_bytes)
    fractions: List[float] = [1.0]
    alive = masks[0]
    for mask in masks[1:]:
        fractions.append(line_fraction(alive, per_line))
        alive = alive & mask
    # Fraction for columns read only by fully-surviving rows (aggregates).
    fractions.append(line_fraction(alive, per_line))
    return fractions
