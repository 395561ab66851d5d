"""Clean counterpart: every guarded attribute is accessed under the
lock, including from the worker loop.  Expected findings: none
(lock-discipline).
"""

import threading


class GoodPool:
    def __init__(self, dispatcher):
        self.dispatcher = dispatcher
        self.lock = threading.Lock()
        self.pending = []

    def submit(self, item):
        with self.lock:
            self.pending.append(item)

    def drain(self):
        with self.lock:
            out = list(self.pending)
            self.pending = []
        return out

    def worker_loop(self):
        while True:
            batch = self.dispatcher.next_batch(4)
            if batch is None:
                break
            self.submit(batch)
