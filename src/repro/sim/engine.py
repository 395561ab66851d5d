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
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.obs.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for invalid scheduling (negative delays, running twice)."""


#: Relative clock slop absorbed by :meth:`Simulator.schedule_at`.
#: Absolute timestamps are typically computed outside the event loop
#: (cumulative sums of inter-arrival gaps, precomputed schedules), so
#: float accumulation can leave a target a few ULPs behind ``now`` even
#: though it is logically "now or later"; deltas within
#: ``CLOCK_EPSILON * max(1, now)`` of zero are clamped to zero while
#: genuinely past times stay fatal.
CLOCK_EPSILON = 1e-9


@dataclass(frozen=True)
class Event:
    """A scheduled callback; ordering key is (time, seq)."""

    time: float
    seq: int
    callback: Callable[["Simulator"], None]

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


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
        #: heap of ``(time, seq, event)``: ``(time, seq)`` is unique, so
        #: the heap orders on native float/int compares and never
        #: reaches the event itself.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._fired = 0
        self._running = False
        #: seqs of scheduled-but-cancelled events; purged lazily when
        #: they reach the heap head, so cancellation is O(1).
        self._cancelled: Set[int] = set()
        #: seqs currently live in the queue (scheduled, not yet fired
        #: or cancelled) — lets :meth:`cancel_event` distinguish "still
        #: pending" from "already fired / already cancelled".
        self._live: Set[int] = set()

    def schedule(self, delay: float, callback: Callable[["Simulator"], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time=time, seq=seq, callback=callback)
        heapq.heappush(self._queue, (time, seq, event))
        self._live.add(seq)
        return event

    def schedule_at(self, time: float, callback: Callable[["Simulator"], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time.

        Epsilon-negative deltas — ``|time - now|`` within
        :data:`CLOCK_EPSILON` relative to the clock — are clamped to
        zero, so absolute timestamps that drifted a few ULPs behind the
        clock through float accumulation fire immediately instead of
        raising; times genuinely in the past remain a
        :class:`SimulationError`.
        """
        delta = time - self.now
        if delta < 0 and -delta <= CLOCK_EPSILON * max(1.0, self.now):
            delta = 0.0
        return self.schedule(delta, callback)

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
        self._cancelled.add(event.seq)
        return True

    def _purge_cancelled(self) -> None:
        """Drop cancelled events sitting at the heap head."""
        while self._queue and self._queue[0][1] in self._cancelled:
            _time, seq, _dead = heapq.heappop(self._queue)
            self._cancelled.discard(seq)

    @property
    def pending(self) -> int:
        return len(self._live)

    def step(self) -> bool:
        """Fire the next live event; returns False when none remain."""
        self._purge_cancelled()
        if not self._queue:
            return False
        time, seq, event = heapq.heappop(self._queue)
        self._live.discard(seq)
        if time < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = time
        self._fired += 1
        event.callback(self)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at ``until``).

        Returns the final virtual time.  ``run(until=T)`` always leaves
        the clock at ``T`` when ``T`` exceeds the last fired event's
        time — whether the queue still holds later events or drained
        early — so callers observe consistent final-clock semantics on
        both paths; the clock never moves backwards (``until`` earlier
        than ``now`` leaves the clock where it is).  When a tracer is
        attached, the run is recorded as a ``sim.run`` span and the
        tracer's sim-clock advances by the elapsed virtual time, so
        discrete-event phases land on the same timeline as
        cost-model-priced ones.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        start = self.now
        fired_before = self._fired
        try:
            while self._queue:
                self._purge_cancelled()
                if not self._queue:
                    break
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
            if until is not None and until > self.now:
                self.now = until
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
