"""Workload generators: Table 2's A/B/C joins, skew, selectivity,
build:probe ratios, and TPC-H Q6 data.

All generators accept a ``scale`` in (0, 1]: the executed cardinality is
``modeled * scale`` (the functional layer runs on it), while the modeled
cardinality stays at paper scale for the cost model.
"""

from repro.workloads.builders import (
    JoinWorkload,
    workload_a,
    workload_b,
    workload_c,
    workload_ratio,
    workload_selectivity,
    workload_skewed,
)
from repro.workloads.custom import (
    SchemeRecommendation,
    inspect_build_keys,
    make_join_workload,
)
from repro.workloads.tpch import Q6_PREDICATE, lineitem_q6
from repro.workloads.validation import assert_valid, validate_workload
from repro.workloads.zipf import empirical_hot_mass, zipf_ranks

__all__ = [
    "JoinWorkload",
    "workload_a",
    "workload_b",
    "workload_c",
    "workload_ratio",
    "workload_selectivity",
    "workload_skewed",
    "Q6_PREDICATE",
    "lineitem_q6",
    "SchemeRecommendation",
    "inspect_build_keys",
    "make_join_workload",
    "assert_valid",
    "validate_workload",
    "empirical_hot_mass",
    "zipf_ranks",
]
