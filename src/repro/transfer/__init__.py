"""GPU data-transfer methods (Table 1 of the paper).

Eight methods move (or expose) CPU-memory data to a GPU kernel:

========================  ========  =====  ===========  ========
Method                    Semantics Level  Granularity  Memory
========================  ========  =====  ===========  ========
Pageable Copy             push      SW     chunk        pageable
Staged Copy               push      SW     chunk        pageable
Dynamic Pinning           push      SW     chunk        pageable
Pinned Copy               push      SW     chunk        pinned
UM Prefetch               push      SW     chunk        unified
UM Migration              pull      OS     page         unified
Zero-Copy                 pull      HW     byte         pinned
Coherence                 pull      HW     byte         pageable
========================  ========  =====  ===========  ========

Each method knows its required memory kind, whether it is supported on a
machine (Coherence needs a cache-coherent link), the effective ingest
bandwidth on a given route, and whether processed data ends up in GPU
memory (push) or is read in place (pull).
"""

from repro.transfer.methods import (
    TRANSFER_METHODS,
    Coherence,
    DynamicPinning,
    PageableCopy,
    PinnedCopy,
    StagedCopy,
    TransferMethod,
    UnifiedMigration,
    UnifiedPrefetch,
    UnsupportedTransferError,
    ZeroCopy,
    get_method,
)

__all__ = [
    "TRANSFER_METHODS",
    "Coherence",
    "DynamicPinning",
    "PageableCopy",
    "PinnedCopy",
    "StagedCopy",
    "TransferMethod",
    "UnifiedMigration",
    "UnifiedPrefetch",
    "UnsupportedTransferError",
    "ZeroCopy",
    "get_method",
]
