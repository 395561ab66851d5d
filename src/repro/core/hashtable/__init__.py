"""Hash tables for the no-partitioning join.

All tables share the SoA layout of the paper's join (separate key and
value arrays — the layout behind the selectivity effects of Figure 20),
count their accesses for the cost model, and can be *placed*: entirely
in one memory region, or split GPU-first across regions as a hybrid
hash table (Section 5.3).
"""

from repro.core.hashtable.base import HashTableBase, TableStats
from repro.core.hashtable.chaining import ChainingHashTable
from repro.core.hashtable.hash_functions import mix64, multiply_shift
from repro.core.hashtable.open_addressing import OpenAddressingHashTable
from repro.core.hashtable.perfect import PerfectHashTable
from repro.core.hashtable.placement import HashTablePlacement, place_hash_table

__all__ = [
    "HashTableBase",
    "TableStats",
    "ChainingHashTable",
    "mix64",
    "multiply_shift",
    "OpenAddressingHashTable",
    "PerfectHashTable",
    "HashTablePlacement",
    "place_hash_table",
]


def create_hash_table(scheme: str, capacity_hint: int, key_dtype, value_dtype):
    """Factory: one of ``perfect``, ``open_addressing``, ``chaining``."""
    if scheme == "perfect":
        return PerfectHashTable(capacity_hint, key_dtype, value_dtype)
    if scheme == "open_addressing":
        return OpenAddressingHashTable(capacity_hint, key_dtype, value_dtype)
    if scheme == "chaining":
        return ChainingHashTable(capacity_hint, key_dtype, value_dtype)
    raise ValueError(
        f"unknown hash scheme {scheme!r}; "
        "valid: perfect, open_addressing, chaining"
    )
