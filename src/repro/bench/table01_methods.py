"""Table 1: the transfer-method overview.

Renders the method matrix (semantics, level, granularity, memory kind)
from the implementation's own metadata, so the code provably implements
the paper's taxonomy — ``tests/bench/test_bench_modules.py`` asserts
every cell.
"""

from __future__ import annotations

from typing import Dict, List

from repro.transfer.methods import TRANSFER_METHODS
from repro.utils.tables import Table

#: Table 1 of the paper, row for row.
PAPER = {
    "pageable_copy": ("push", "SW", "chunk", "pageable"),
    "staged_copy": ("push", "SW", "chunk", "pageable"),
    "dynamic_pinning": ("push", "SW", "chunk", "pageable"),
    "pinned_copy": ("push", "SW", "chunk", "pinned"),
    "um_prefetch": ("push", "SW", "chunk", "unified"),
    "um_migration": ("pull", "OS", "page", "unified"),
    "zero_copy": ("pull", "HW", "byte", "pinned"),
    "coherence": ("pull", "HW", "byte", "pageable"),
}


def rows() -> List[Dict[str, str]]:
    """The implemented method matrix, in Table 1's order."""
    out = []
    for name in PAPER:
        method = TRANSFER_METHODS[name]
        out.append(
            {
                "method": name,
                "semantics": method.semantics,
                "level": method.level,
                "granularity": method.granularity,
                "memory": ", ".join(sorted(k.value for k in method.supported_kinds())),
            }
        )
    return out


def run() -> Table:
    """Render the implemented Table 1."""
    table = Table(
        ["method", "semantics", "level", "granularity", "memory"],
        title="Table 1: GPU transfer methods (implemented taxonomy)",
    )
    for row in rows():
        table.add_row(
            [row["method"], row["semantics"], row["level"],
             row["granularity"], row["memory"]]
        )
    return table
