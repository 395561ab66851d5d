"""Unified observability layer: spans, metrics, and run manifests.

Three pieces, designed to answer the paper's kind of question — "which
resource explains this number?" — for every priced run:

* **Span tracing** (:mod:`repro.obs.trace`): nested spans on a
  deterministic sim-clock, threaded through ``CostModel.phase_cost``,
  the join operators, the morsel dispatcher, and the discrete-event
  simulator.
* **Metrics** (:mod:`repro.obs.metrics`): counters/gauges/histograms
  populated from per-stream occupancy — bytes per link, atomic ops,
  cache hit rates, morsel batch sizes.
* **Run manifests** (:mod:`repro.obs.manifest`): schema-versioned JSON
  records (machine, workload, per-phase occupancy, bottleneck chains)
  consumed by ``python -m repro.obs.report`` and by the committed
  baselines of :mod:`repro.bench.baselines`.

An :class:`Observability` bundle (tracer + metrics) rides along one
operator instance; every ``CostModel`` has one (a fresh bundle is
created when none is injected).  :data:`INERT` is the bundle for
pricing whose spans and metrics nobody reads (:mod:`repro.obs.inert`).

``repro.obs.explain`` and ``repro.obs.manifest`` import the cost model,
so they are loaded lazily here to keep ``repro.costmodel.model ->
repro.obs`` import-cycle free.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any

from repro.obs.clock import SimClock
from repro.obs.inert import InertMetrics, InertTracer
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import ActiveSpan, Span, Timeline, Tracer

#: Submodules (and their key names) resolved lazily on attribute access.
_LAZY_ATTRS = {
    "explain": "repro.obs.explain",
    "manifest": "repro.obs.manifest",
    "report": "repro.obs.report",
    "bottleneck_chain": "repro.obs.explain",
    "render_chain": "repro.obs.explain",
    "utilization": "repro.obs.explain",
    "explain_join": "repro.obs.explain",
    "RunManifest": "repro.obs.manifest",
    "build_manifest": "repro.obs.manifest",
    "MANIFEST_SCHEMA_VERSION": "repro.obs.manifest",
}


@dataclass
class Observability:
    """Tracer + metrics bundle shared by one pricing pipeline."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(cls) -> "Observability":
        """Fresh bundle: new SimClock, Tracer, and MetricsRegistry."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry())

    @property
    def clock(self) -> SimClock:
        """The tracer's deterministic simulated clock."""
        return self.tracer.clock

    @property
    def timeline(self) -> Timeline:
        """The tracer's recorded span timeline."""
        return self.tracer.timeline


#: The inert bundle: it accepts every span, clock and metric call and
#: keeps nothing, so one shared instance serves every caller.
INERT = Observability(tracer=InertTracer(), metrics=InertMetrics())


def __getattr__(name: str) -> Any:
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    if name in ("explain", "manifest", "report"):
        value: Any = module
    else:
        value = getattr(module, name)
    globals()[name] = value  # cache for the next lookup
    return value


__all__ = [
    "ActiveSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "INERT",
    "MetricsRegistry",
    "Observability",
    "SimClock",
    "Span",
    "Timeline",
    "Tracer",
    # lazily resolved:
    "bottleneck_chain",
    "render_chain",
    "utilization",
    "explain_join",
    "RunManifest",
    "build_manifest",
    "MANIFEST_SCHEMA_VERSION",
]
