"""Runtime statistics that parameterize lowering and pricing.

The lowering compiler prices traffic from *statistics*: hash-table
access counters, payload-line fractions, per-column line fractions,
dimension survival rates.  They come from two sources:

* **measured** — the facade operators execute functionally first and
  capture the exact counters (:meth:`TableProfile.from_table` etc.);
  pricing from measured statistics is what the golden-equivalence
  harness pins bit-for-bit;
* **estimated** — the optimizer prices candidate plans *before* any
  execution, so it derives the same statistics analytically from
  modeled cardinalities and selectivity hints (``estimate_*``).  The
  estimation error is exactly the optimizer's predicted-vs-actual gap,
  tracked as a first-class benchmark (``repro.bench.optimizer_gap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.hardware.cache import HotSetProfile
from repro.utils.units import LINE_BYTES

#: analytic hash-scheme constants for pre-execution estimation: average
#: slot inspections per insert and per lookup at the library's default
#: geometries.  Perfect hashing is exact (dense primary-key domain);
#: the open-addressing and chaining numbers are rough expected values
#: at ~50% fill, good enough to rank candidates.
SCHEME_ACCESS_FACTORS = {
    "perfect": (1.0, 1.0),
    "open_addressing": (1.5, 1.5),
    "chaining": (1.5, 1.5),
}


@dataclass(frozen=True)
class TableProfile:
    """What pricing needs to know about one hash table.

    The probe counters (``lookups``, ``lookup_probes``,
    ``value_reads``) are totals at *executed* scale for measured
    profiles (the lowering rescales them by the probe relation's
    ``model_factor``, exactly as the operators always did) and totals
    at *modeled* scale for estimated profiles (which therefore carry
    ``model_factor == 1``).
    """

    entry_bytes: int
    key_itemsize: int
    value_itemsize: int
    insert_factor: float
    lookups: float
    lookup_probes: float
    value_reads: float
    modeled_bytes: float

    @classmethod
    def from_table(cls, table, modeled_build_tuples: int) -> "TableProfile":
        """Measured profile of a built-and-probed hash table."""
        return cls(
            entry_bytes=table.entry_bytes,
            key_itemsize=table.keys.dtype.itemsize,
            value_itemsize=table.values.dtype.itemsize,
            insert_factor=table.stats.insert_factor,
            lookups=table.stats.lookups,
            lookup_probes=table.stats.lookup_probes,
            value_reads=table.stats.value_reads,
            modeled_bytes=table.modeled_bytes(modeled_build_tuples),
        )

    @classmethod
    def estimate(
        cls,
        modeled_build_tuples: int,
        modeled_probe_tuples: int,
        key_bytes: int,
        payload_bytes: int,
        scheme: str = "perfect",
        selectivity: float = 1.0,
    ) -> "TableProfile":
        """Analytic profile from modeled cardinalities (no execution)."""
        if scheme not in SCHEME_ACCESS_FACTORS:
            raise ValueError(
                f"no estimation constants for hash scheme {scheme!r}"
            )
        insert_factor, probes_per_lookup = SCHEME_ACCESS_FACTORS[scheme]
        entry_bytes = key_bytes + payload_bytes
        return cls(
            entry_bytes=entry_bytes,
            key_itemsize=key_bytes,
            value_itemsize=payload_bytes,
            insert_factor=insert_factor,
            lookups=float(modeled_probe_tuples),
            lookup_probes=modeled_probe_tuples * probes_per_lookup,
            value_reads=modeled_probe_tuples * selectivity,
            modeled_bytes=float(modeled_build_tuples) * entry_bytes,
        )

    @property
    def accesses_per_lookup(self) -> float:
        """Key + value accesses per probe tuple (the Coop/Het metric)."""
        return (self.lookup_probes + self.value_reads) / max(1, self.lookups)


@dataclass(frozen=True)
class JoinStats:
    """Statistics for a two-relation hash-join shape."""

    table: TableProfile
    #: payload-column line-load fraction of the probe side (Section
    #: 7.2.9); 1.0 when every line holds at least one match.
    lines_loaded: float
    matches: int = 0
    #: multiplier from the probe counters' scale to modeled scale
    #: (``s.model_factor`` for measured stats, 1.0 for estimates).
    model_factor: float = 1.0
    hot_set: Optional[HotSetProfile] = None


@dataclass(frozen=True)
class ScanStats:
    """Statistics for a scan/filter/aggregate (Q6) shape."""

    #: per-column line-load fractions, in scan schema order.
    column_line_fractions: Tuple[float, ...]


@dataclass(frozen=True)
class StarStats:
    """Statistics for a star/snowflake multi-join shape."""

    #: fraction of still-alive fact tuples surviving each dimension
    #: probe, in probe order.
    survival_per_dim: Tuple[float, ...] = field(default_factory=tuple)


# ----------------------------------------------------------------------
# Estimators (the optimizer's pre-execution statistics)
# ----------------------------------------------------------------------
def estimate_line_fraction(
    selectivity: float, value_bytes: int, clustered: bool = False
) -> float:
    """Fraction of value cache lines holding at least one match.

    Uniformly scattered matches hit a line with probability
    ``1 - (1 - s)^k`` for ``k`` values per line; clustered matches
    occupy contiguous lines, so the fraction collapses to ``s``.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1]: {selectivity}")
    if clustered:
        return selectivity
    per_line = max(1, LINE_BYTES // max(1, value_bytes))
    return 1.0 - (1.0 - selectivity) ** per_line


def estimate_join_stats(
    modeled_build_tuples: int,
    modeled_probe_tuples: int,
    key_bytes: int,
    payload_bytes: int,
    scheme: str = "perfect",
    selectivity: float = 1.0,
    hot_set: Optional[HotSetProfile] = None,
) -> JoinStats:
    """Analytic :class:`JoinStats` from cardinalities and a match-rate
    hint (no functional execution)."""
    table = TableProfile.estimate(
        modeled_build_tuples,
        modeled_probe_tuples,
        key_bytes,
        payload_bytes,
        scheme=scheme,
        selectivity=selectivity,
    )
    return JoinStats(
        table=table,
        lines_loaded=estimate_line_fraction(selectivity, payload_bytes),
        matches=int(modeled_probe_tuples * selectivity),
        model_factor=1.0,
        hot_set=hot_set,
    )


def estimate_scan_stats(
    variant: str,
    predicates: Sequence,
    column_count: int,
    value_bytes: Sequence[int],
    residual_load: float,
) -> ScanStats:
    """Analytic per-column line fractions for a selection scan.

    Mirrors the measured-path arithmetic of
    :func:`repro.core.ops.selection.selection_line_fractions` plus the
    branching residual: column ``i`` is loaded only for lines where all
    predicates over columns ``< i`` survive.  Predicates without a
    ``selectivity`` hint are assumed non-selective (fraction 1.0).
    """
    if variant == "predicated":
        return ScanStats(tuple(1.0 for _ in range(column_count)))
    fractions = [1.0]
    prefix = 1.0
    clustered_prefix = True
    for i in range(1, column_count):
        if i - 1 < len(predicates):
            pred = predicates[i - 1]
            s = pred.selectivity if pred.selectivity is not None else 1.0
            clustered_prefix = clustered_prefix and pred.clustered
            prefix *= s
        width = value_bytes[i] if i < len(value_bytes) else 4
        fraction = estimate_line_fraction(
            prefix, width, clustered=clustered_prefix
        )
        fractions.append(residual_load + (1.0 - residual_load) * fraction)
    return ScanStats(tuple(fractions))


def estimate_star_stats(
    survival_hints: Sequence[Optional[float]],
) -> StarStats:
    """Analytic survival fractions from per-dimension match-rate hints
    (1.0 — no filtering — when a hint is missing)."""
    return StarStats(
        tuple(1.0 if s is None else float(s) for s in survival_hints)
    )
