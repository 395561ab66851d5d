"""Deterministic virtual clocks for span timing.

Observability spans are timed against *simulated* seconds, never the
wall clock: the cost model prices a phase and advances a
:class:`SimClock` by exactly that many virtual seconds, so traces are
bit-identical across runs (the same discipline the discrete-event
simulator enforces with its ``(time, seq)`` event ordering; the plan
goldens and ``baselines/`` pin every priced number bit for bit).
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing virtual clock.

    The clock never reads real time; it only moves when someone who
    knows how long simulated work took calls :meth:`advance`.

    >>> clock = SimClock()
    >>> clock.advance(1.5)
    1.5
    >>> clock.now
    1.5
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute virtual time."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now})"
