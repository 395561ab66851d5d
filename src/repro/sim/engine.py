"""A minimal deterministic discrete-event simulator.

Events are (time, sequence) ordered; ties resolve in scheduling order,
which makes simulations reproducible.  Callbacks receive the simulator
so they can schedule follow-up events.  Scheduled events can be
revoked with :meth:`Simulator.cancel_event` before they fire — the
serving scheduler uses this for per-query deadline events, which are
cancelled when the query completes in time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, NamedTuple, Optional, Set

from repro.obs.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for invalid scheduling (past times, running twice)."""


class Event(NamedTuple):
    """A scheduled callback; ordering key is (time, seq).

    Events go on the heap as they are: ``(time, seq)`` is unique, so the
    heap orders on native float/int compares and never reaches the
    callback.
    """

    time: float
    seq: int
    callback: Callable[["Simulator"], None]


class Simulator:
    """Event loop with a virtual clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda s: fired.append(s.now))
    >>> _ = sim.schedule(1.0, lambda s: fired.append(s.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.now = 0.0
        self.tracer = tracer
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._fired = 0
        self._running = False
        #: seqs currently live in the queue (scheduled, not yet fired
        #: or cancelled); a queued seq missing here was cancelled.
        self._live: Set[int] = set()

    def schedule(self, delay: float, callback: Callable[["Simulator"], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative; infinity is allowed, NaN is not
        (it would fire first and poison the clock).
        """
        if not delay >= 0:
            raise SimulationError(
                f"delay must be a non-negative time: delay={delay}"
            )
        seq = next(self._seq)
        event = Event(self.now + delay, seq, callback)
        heapq.heappush(self._queue, event)
        self._live.add(seq)
        return event

    def schedule_at(self, time: float, callback: Callable[["Simulator"], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time; any time
        before ``now``, by however little, or NaN is a
        :class:`SimulationError`."""
        return self.schedule(time - self.now, callback)

    def cancel_event(self, event: Event) -> bool:
        """Cancel a scheduled event before it fires.

        Returns True when the event was still pending (it will now
        never fire and the clock will never advance to it on its
        account); False when it already fired or was already
        cancelled.  Cancellation is O(1): the heap entry is discarded
        lazily when it reaches the head.

        This is what makes deadline enforcement cheap for the serving
        scheduler: every admitted query schedules one deadline event,
        and the common case — the query finishes in time — cancels it
        instead of letting a stale callback fire.
        """
        if event.seq not in self._live:
            return False
        self._live.discard(event.seq)
        return True

    @property
    def pending(self) -> int:
        return len(self._live)

    def step(self) -> bool:
        """Fire the next live event; returns False when none remain."""
        queue = self._queue
        while queue and queue[0][1] not in self._live:
            heapq.heappop(queue)  # cancelled
        if not queue:
            return False
        time, seq, callback = heapq.heappop(queue)
        self._live.discard(seq)
        if time < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = time
        self._fired += 1
        callback(self)
        return True

    def run(self) -> float:
        """Drain the event queue; returns the final virtual time.

        When a tracer is attached, the run is recorded as a ``sim.run``
        span and the tracer's sim-clock advances by the elapsed virtual
        time, so discrete-event phases land on the same timeline as
        cost-model-priced ones.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        start = self.now
        fired_before = self._fired
        try:
            while self.step():
                pass
        finally:
            self._running = False
        if self.tracer is not None:
            with self.tracer.span(
                "sim.run",
                worker="simulator",
                events=self._fired - fired_before,
            ) as span:
                span.advance(self.now - start)
        return self.now
