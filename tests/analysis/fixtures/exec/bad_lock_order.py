"""Seeded lock-order cycle: ``forward`` acquires LOCK_A then LOCK_B,
``backward`` acquires LOCK_B then LOCK_A.  Expected findings
(lock-discipline): exactly one lock-acquisition-order cycle.
"""

import threading

LOCK_A = threading.Lock()
LOCK_B = threading.Lock()


def forward():
    with LOCK_A:
        with LOCK_B:
            return "a-then-b"


def backward():
    with LOCK_B:
        with LOCK_A:
            return "b-then-a"
