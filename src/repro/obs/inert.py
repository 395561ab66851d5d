"""The inert observability parts: every call is accepted, nothing kept.

Pricing code always has a bundle to write to; where nobody will read
what it writes (the optimizer's candidates), it gets
:data:`repro.obs.INERT`, built from these.  Its clock stays at zero,
its spans record nothing and its metric cells discard every update, so
the one instance can be shared: it holds no state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.clock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import ActiveSpan, Span, Tracer


class InertClock(SimClock):
    """A clock that stays at zero; advancing it is accepted and ignored."""

    __slots__ = ()

    def advance(self, seconds: float) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> float:
        return self._now


class _InertSpan(ActiveSpan):
    """An open-span handle whose updates are discarded."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> ActiveSpan:
        return self

    def add_units(self, units: float) -> ActiveSpan:
        return self


class InertTracer(Tracer):
    """A tracer on an :class:`InertClock` that records no span."""

    def __init__(self) -> None:
        super().__init__(clock=InertClock())
        self._span = _InertSpan(self, "", "", 0.0, 0.0, {})

    @contextmanager
    def span(
        self,
        label: str,
        worker: str = "main",
        units: float = 0.0,
        **attrs: Any,
    ) -> Iterator[ActiveSpan]:
        yield self._span

    def record(
        self,
        worker: str,
        label: str,
        start: float,
        end: float,
        units: float = 0.0,
        **attrs: Any,
    ) -> Span:
        return Span(worker, label, start, end, units, attrs=attrs)


class _DiscardingCell:
    """A counter, gauge and histogram in one, keeping no update."""

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class InertMetrics(MetricsRegistry):
    """A registry whose every cell discards its updates; it stays empty."""

    _CELL = _DiscardingCell()

    def _get(self, kind, name, labels, factory):
        return self._CELL
