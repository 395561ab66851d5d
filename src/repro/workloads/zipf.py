"""Zipf-distributed rank sampling and empirical hot-set profiles.

Figure 19 skews the probe relation with Zipf exponents between 0 and
1.75; "with an exponent of 1.5, there is a 97.5% chance of hitting one
of the top-1000 tuples".  :func:`zipf_ranks` samples ranks by inverse
transform over the exact pmf (fast and reproducible for the executed
cardinalities used here; the draws are sorted once and merged against
the CDF rather than each searched in it); :func:`empirical_hot_mass`
turns generated keys into a :class:`HotSetProfile` for the cache model.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.hardware.cache import HotSetProfile

#: Seed of the fallback generator when no ``rng`` is injected.  A fixed
#: seed keeps default sampling reproducible run-to-run; callers that
#: want independent draws pass their own Generator.
DEFAULT_SEED = 0


def zipf_ranks(
    n_items: int,
    exponent: float,
    size: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample ``size`` ranks in [0, n_items) with pmf ~ 1/(rank+1)^exponent.

    ``exponent == 0`` is the uniform distribution.  Rank 0 is the hottest
    item.  Sampling is exact inverse-CDF over the finite domain.
    """
    if n_items <= 0:
        raise ValueError(f"need a positive number of items, got {n_items}")
    if not 0.0 <= exponent < math.inf:
        raise ValueError(
            f"Zipf exponent must be finite and non-negative, got {exponent}"
        )
    if size < 0:
        raise ValueError(f"sample size must be non-negative, got {size}")
    rng = rng or np.random.default_rng(DEFAULT_SEED)
    if exponent == 0:
        return rng.integers(0, n_items, size=size, dtype=np.int64)
    weights = 1.0 / np.power(np.arange(1, n_items + 1, dtype=np.float64), exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    uniforms = rng.random(size)
    # searchsorted(cdf, uniforms, "right") as one merge: sort the draws,
    # place each CDF step among them, and count the steps at or below
    # each sorted draw.
    order = np.argsort(uniforms)
    before = np.searchsorted(uniforms[order], cdf, side="left")
    ranks = np.empty(size, dtype=np.int64)
    ranks[order] = np.cumsum(np.bincount(before, minlength=size + 1)[:size])
    return ranks


def top_k_mass(exponent: float, n_items: int, k: int) -> float:
    """Analytic fraction of accesses hitting the ``k`` hottest items."""
    profile = HotSetProfile.zipf(n_items, exponent)
    return profile.mass_of_top(k)


def empirical_hot_mass(keys: np.ndarray) -> HotSetProfile:
    """HotSetProfile measured from an observed key stream.

    Counts key frequencies, sorts them descending, and exposes the
    cumulative access mass of the top-k distinct keys (with linear
    interpolation between integer ks for cache-capacity queries):
    ``mass(2.5)`` sits halfway between ``mass(2)`` and ``mass(3)``.
    """
    if keys.size == 0:
        raise ValueError("cannot profile an empty key stream")
    _, counts = np.unique(keys, return_counts=True)
    counts = np.sort(counts)[::-1].astype(np.float64)
    cumulative = np.cumsum(counts)
    total = cumulative[-1]
    distinct = len(counts)

    def mass(k: float) -> float:
        if k <= 0:
            return 0.0
        if k >= distinct:
            return 1.0
        lower = int(k)
        mass_lower = float(cumulative[lower - 1] / total) if lower else 0.0
        fraction = k - lower
        if fraction == 0.0:
            return mass_lower
        mass_upper = float(cumulative[lower] / total)
        return mass_lower + fraction * (mass_upper - mass_lower)

    return HotSetProfile(distinct_targets=distinct, mass_of_top=mass)
