"""Seeded lock-discipline violations: a shared queue with a guard set
(``items``/``closed`` are written under ``self.lock``) accessed
lock-free elsewhere.  Expected findings (lock-discipline):

1. ``drain_unsafe`` reads ``self.items`` without the lock;
2. ``drain_unsafe`` writes ``self.items`` without the lock;
3. ``is_closed_unsafe`` reads ``self.closed`` without the lock (the
   worker loop ``worker_main`` polls it).
"""

import threading


class SharedQueue:
    def __init__(self):
        self.lock = threading.Lock()
        self.items = []
        self.closed = False

    def put(self, item):
        with self.lock:
            self.items.append(item)

    def close(self):
        with self.lock:
            self.closed = True

    def drain_unsafe(self):
        out = list(self.items)
        self.items = []
        return out

    def is_closed_unsafe(self):
        return self.closed


def worker_main(queue: SharedQueue) -> None:
    while not queue.is_closed_unsafe():
        queue.put(1)
