"""Join workload builders (Table 2 and the evaluation's variants).

========  ==============  ==========  ==========  ===========
Workload  key/payload     |R|         |S|         note
========  ==============  ==========  ==========  ===========
A         8 / 8 bytes     2^27        2^31        from [10]
B         8 / 8 bytes     2^18        2^31        R fits caches
C         4 / 4 bytes     1024 * 10^6 1024 * 10^6 from [54]
========  ==============  ==========  ==========  ===========

R's keys are a permutation of a dense domain (primary keys), which is
what justifies the paper's perfect-hashing setup.  Each S tuple matches
exactly one R tuple (uniform foreign keys) unless skew or selectivity
variants say otherwise.

A builder fixes both relations' shapes and returns at once; the columns
are generated on the first read of any of them, so a workload that is
only planned never allocates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.data.relation import (
    DeferredColumns,
    Relation,
    executed_cardinality,
)
from repro.hardware.cache import HotSetProfile
from repro.workloads.zipf import zipf_ranks

#: Table 2 cardinalities.
CARDINALITY_A_R = 2**27
CARDINALITY_A_S = 2**31
CARDINALITY_B_R = 2**18
CARDINALITY_B_S = 2**31
CARDINALITY_C = 1024 * 10**6

#: Default execution scale: small enough for sub-second generation,
#: large enough for stable traffic counts.
DEFAULT_SCALE = 2.0**-11


@dataclass
class JoinWorkload:
    """A build relation R, a probe relation S, and their metadata."""

    name: str
    r: Relation
    s: Relation
    zipf_exponent: float = 0.0
    selectivity: float = 1.0
    description: str = ""

    @property
    def total_modeled_tuples(self) -> int:
        return self.r.modeled_tuples + self.s.modeled_tuples

    @property
    def total_modeled_bytes(self) -> int:
        return self.r.modeled_bytes + self.s.modeled_bytes

    def hot_set_profile(self) -> Optional[HotSetProfile]:
        """Skew profile of probe accesses at *modeled* scale (Figure 19)."""
        if self.zipf_exponent <= 0:
            return None
        return HotSetProfile.zipf(self.r.modeled_tuples, self.zipf_exponent)

    def placed_for(
        self, transfer_method: str, location: Optional[str] = None
    ) -> "JoinWorkload":
        """Copy with both relations allocated as the method requires.

        Table 1 ties each transfer method to a memory kind (Zero-Copy
        needs pinned pages, UM methods need unified allocations); the
        cost model enforces that, so benchmarks sweeping methods must
        reallocate their inputs accordingly — exactly what the paper's
        harness does between measurement series.
        """
        from repro.transfer.methods import get_method

        kind = get_method(transfer_method).required_kind
        return replace(
            self,
            r=self.r.placed(location or self.r.location, kind=kind),
            s=self.s.placed(location or self.s.location, kind=kind),
        )


#: fewest executed tuples per relation, however small the scale.
MIN_EXECUTED_TUPLES = 64


def _key_dtype(key_bytes: int) -> np.dtype:
    if key_bytes == 4:
        return np.dtype(np.int32)
    if key_bytes == 8:
        return np.dtype(np.int64)
    raise ValueError(f"unsupported key width: {key_bytes} bytes")


def _build_relations(
    name: str,
    modeled_r: int,
    modeled_s: int,
    scale: float,
    key_bytes: int,
    payload_bytes: int,
    zipf_exponent: float,
    selectivity: float,
    seed: int,
) -> JoinWorkload:
    """R and S with their shapes fixed now and their columns generated
    together, from one rng stream, on the first read of any of them."""
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    if not 0.0 <= zipf_exponent < math.inf:
        raise ValueError(
            f"Zipf exponent must be finite and non-negative, got {zipf_exponent}"
        )
    executed_r = executed_cardinality(modeled_r, scale, MIN_EXECUTED_TUPLES)
    executed_s = executed_cardinality(modeled_s, scale, MIN_EXECUTED_TUPLES)
    kdtype = _key_dtype(key_bytes)
    pdtype = _key_dtype(payload_bytes)  # payloads are integers of same widths
    columns = DeferredColumns(
        {
            "r_key": (executed_r, kdtype),
            "r_payload": (executed_r, pdtype),
            "s_key": (executed_s, kdtype),
            "s_payload": (executed_s, pdtype),
        },
        lambda: _join_columns(
            executed_r, executed_s, kdtype, pdtype, zipf_exponent,
            selectivity, seed,
        ),
    )
    r = Relation(
        name="R",
        key=columns.column("r_key"),
        payload=columns.column("r_payload"),
        modeled_tuples=modeled_r,
    )
    s = Relation(
        name="S",
        key=columns.column("s_key"),
        payload=columns.column("s_payload"),
        modeled_tuples=modeled_s,
    )
    return JoinWorkload(
        name=name,
        r=r,
        s=s,
        zipf_exponent=zipf_exponent,
        selectivity=selectivity,
    )


def _join_columns(
    executed_r: int,
    executed_s: int,
    kdtype: np.dtype,
    pdtype: np.dtype,
    zipf_exponent: float,
    selectivity: float,
    seed: int,
) -> Dict[str, np.ndarray]:
    """Generate R's and S's columns, R first, from one rng stream.

    Every ``rng`` call and its dtype fix the random stream (and with it
    every golden); the arithmetic around them works in place, in the
    target dtype.  Fixed-width wraparound makes ``key * 3 + 1`` in the
    payload dtype bit-identical to computing it in int64 and casting.
    """
    rng = np.random.default_rng(seed)

    # R: dense primary keys, permuted. Payload = key * 3 + 1, so tests can
    # verify join results without a reference table.
    r_keys = rng.permutation(executed_r).astype(kdtype, copy=False)
    r_payload = np.multiply(r_keys, 3, dtype=pdtype)
    r_payload += 1

    # S: foreign keys into R's dense domain.
    if zipf_exponent > 0:
        # Ranks map to R keys so rank 0 is the hottest key.
        ranks = zipf_ranks(executed_r, zipf_exponent, executed_s, rng)
        s_keys = ranks.astype(kdtype, copy=False)
    else:
        s_keys = rng.integers(0, executed_r, size=executed_s).astype(
            kdtype, copy=False
        )
    if selectivity < 1.0:
        # Misses draw from a disjoint domain, keeping |R| (and hence the
        # hash table size) constant while the match rate varies (Fig. 20).
        miss = rng.random(executed_s) >= selectivity
        s_keys[miss] = rng.integers(
            executed_r, 2 * executed_r, size=int(miss.sum())
        ).astype(kdtype, copy=False)
    s_payload = np.multiply(s_keys, 7, dtype=pdtype)
    s_payload += 5
    return {
        "r_key": r_keys,
        "r_payload": r_payload,
        "s_key": s_keys,
        "s_payload": s_payload,
    }


def workload_a(
    scale: float = DEFAULT_SCALE,
    seed: int = 42,
    size_scale: float = 1.0,
) -> JoinWorkload:
    """Workload A: 2 GiB ⋈ 32 GiB with 16-byte tuples (from Blanas et al.).

    ``size_scale`` shrinks the *modeled* cardinalities too (Figure 13
    scales the workloads down to fit into GPU memory).
    """
    modeled_r = int(CARDINALITY_A_R * size_scale)
    modeled_s = int(CARDINALITY_A_S * size_scale)
    wl = _build_relations(
        "A", modeled_r, modeled_s, scale, 8, 8, 0.0, 1.0, seed
    )
    wl.description = "2 GiB ⋈ 32 GiB, 8/8-byte tuples"
    return wl


def workload_b(
    scale: float = DEFAULT_SCALE,
    seed: int = 43,
    size_scale: float = 1.0,
) -> JoinWorkload:
    """Workload B: 4 MiB ⋈ 32 GiB — R fits the CPU L3 and GPU L2 caches.

    ``size_scale`` shrinks only the probe side: R must stay cache-sized
    (it *is* the point of workload B).
    """
    modeled_s = int(CARDINALITY_B_S * size_scale)
    wl = _build_relations(
        "B", CARDINALITY_B_R, modeled_s, scale, 8, 8, 0.0, 1.0, seed
    )
    wl.description = "4 MiB ⋈ 32 GiB, 8/8-byte tuples (small dimension table)"
    return wl


def workload_c(
    scale: float = DEFAULT_SCALE,
    seed: int = 44,
    size_scale: float = 1.0,
    tuple_bytes: int = 8,
) -> JoinWorkload:
    """Workload C: |R| = |S| = 1024e6 (from Kim et al.).

    Table 2 uses 4/4-byte tuples; the scaling experiments (Figures 16-18)
    use a 16-byte-tuple variant, selected with ``tuple_bytes=16``.
    """
    if tuple_bytes not in (8, 16):
        raise ValueError(f"workload C supports 8 or 16 byte tuples: {tuple_bytes}")
    width = 4 if tuple_bytes == 8 else 8
    modeled = int(CARDINALITY_C * size_scale)
    wl = _build_relations(
        "C", modeled, modeled, scale, width, width, 0.0, 1.0, seed
    )
    wl.description = f"|R| = |S|, {width}/{width}-byte tuples"
    return wl


def workload_skewed(
    zipf_exponent: float,
    scale: float = DEFAULT_SCALE,
    seed: int = 45,
) -> JoinWorkload:
    """Workload A with a Zipf-distributed probe relation (Figure 19)."""
    wl = _build_relations(
        "A-skew",
        CARDINALITY_A_R,
        CARDINALITY_A_S,
        scale,
        8,
        8,
        zipf_exponent,
        1.0,
        seed,
    )
    wl.description = f"workload A, S ~ Zipf({zipf_exponent})"
    return wl


def workload_selectivity(
    selectivity: float,
    scale: float = DEFAULT_SCALE,
    seed: int = 46,
) -> JoinWorkload:
    """Workload A with reduced join selectivity (Figure 20)."""
    wl = _build_relations(
        "A-sel",
        CARDINALITY_A_R,
        CARDINALITY_A_S,
        scale,
        8,
        8,
        0.0,
        selectivity,
        seed,
    )
    wl.description = f"workload A, selectivity {selectivity:.0%}"
    return wl


def workload_ratio(
    ratio: int,
    scale: float = DEFAULT_SCALE,
    seed: int = 47,
    modeled_r: int = 128 * 10**6,
) -> JoinWorkload:
    """Workload C variant with |R| : |S| = 1 : ratio (Figure 18).

    R is fixed at 2 GiB of 16-byte tuples; S grows to 30.5 GiB at 1:16.
    """
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    wl = _build_relations(
        f"C-1:{ratio}",
        modeled_r,
        modeled_r * ratio,
        scale,
        8,
        8,
        0.0,
        1.0,
        seed,
    )
    wl.description = f"1:{ratio} build-to-probe ratio, 16-byte tuples"
    return wl
