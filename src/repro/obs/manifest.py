"""Schema-versioned JSON run manifests.

A *run manifest* is the machine-readable record of one priced run:
which machine and calibration produced it, what the workload was, how
long each phase took, which resource was each phase's bottleneck (and
how close the contenders were), plus the metric and span dumps of the
observability layer.  Manifests are deterministic — no wall-clock
timestamps — so their phases and results can be committed as bench
baselines (``baselines/``, see :mod:`repro.bench.baselines`) and
diffed across changes.

Bump :data:`MANIFEST_SCHEMA_VERSION` whenever a field is added,
renamed, or changes meaning, and record the bump in the schema
changelog of ``docs/observability.md`` — CI's bench-smoke job fails if
the version drifts without a changelog entry (see
:func:`check_changelog`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.costmodel.calibration import Calibration
from repro.costmodel.model import PhaseCost
from repro.hardware.topology import Machine
from repro.obs.explain import bottleneck_chain, utilization

#: Version of the manifest JSON layout.  Keep in lockstep with the
#: schema changelog in docs/observability.md.
MANIFEST_SCHEMA_VERSION = "1.4"

#: The *declared* manifest schema, checked against real runs by
#: ``tests/obs/test_manifest_schema.py``: each section must emit exactly
#: the keys listed here, and the key sets are pinned by ``checksum`` (a
#: BLAKE2b digest of the sorted ``sections`` mapping).  Adding, renaming,
#: or removing a key therefore requires editing this declaration,
#: recomputing the checksum (the test prints the expected value),
#: bumping :data:`MANIFEST_SCHEMA_VERSION`, and recording the bump in
#: the docs/observability.md changelog (enforced by
#: :func:`check_changelog` in CI) — a new key cannot drift in silently.
#:
#: ``version`` must equal :data:`MANIFEST_SCHEMA_VERSION`; each section
#: names its writer (``Class.method`` or a module-level function) and
#: the exact keys that writer may emit.
MANIFEST_SCHEMA = {
    "version": "1.4",
    "checksum": "57cf6792e878707a",
    "sections": {
        "__top__": {
            "writer": "RunManifest.to_dict",
            "keys": [
                "schema_version",
                "kind",
                "machine",
                "workload",
                "config",
                "phases",
                "bottleneck_summary",
                "results",
                "metrics",
                "spans",
                "calibration",
                "resilience",
                "optimizer",
                "serving",
            ],
        },
        "__document__": {
            "writer": "write_manifest_file",
            "keys": ["schema_version", "generator", "runs"],
        },
        "phases": {
            "writer": "phase_record",
            "keys": [
                "label",
                "seconds",
                "bottleneck",
                "occupancy",
                "utilization",
                "bottleneck_chain",
            ],
        },
        "machine": {
            "writer": "machine_summary",
            "keys": ["name", "processors", "memories", "links"],
        },
        "resilience": {
            "writer": "ResilienceLog.section",
            "keys": [
                "schema_version",
                "plan",
                "injected",
                "injected_counts",
                "counters",
                "events",
            ],
        },
        "optimizer": {
            "writer": "OptimizerResult.section",
            "keys": [
                "schema_version",
                "machine",
                "shape",
                "strategy",
                "transfer_method",
                "placement",
                "gpu_fraction",
                "backend",
                "shards",
                "predicted_seconds",
                "considered",
                "rejected",
                "candidates",
            ],
        },
        "serving": {
            "writer": "ServingRecord.section",
            "keys": [
                "schema_version",
                "request_id",
                "tenant",
                "workload",
                "machine",
                "arrival",
                "start",
                "finish",
                "latency",
                "solo_seconds",
                "stretch",
                "cache_hit",
                "outcome",
                "deadline",
                "cancelled_at",
                "retries",
                "shed_reason",
                "breaker_state",
            ],
        },
    },
}


def machine_summary(machine: Machine) -> Dict[str, Any]:
    """JSON-ready topology description of a simulated machine."""
    return {
        "name": machine.name,
        "processors": {
            name: {
                "kind": proc.kind.value,
                "spec": proc.spec.name,
                "local_memory": proc.local_memory.name,
            }
            for name, proc in machine.processors.items()
        },
        "memories": {
            name: {
                "spec": region.spec.name,
                "owner": region.owner,
                "capacity_bytes": region.capacity,
            }
            for name, region in machine.memories.items()
        },
        "links": [
            {
                "spec": link.spec.name,
                "a": link.endpoint_a,
                "b": link.endpoint_b,
                "cache_coherent": link.spec.cache_coherent,
            }
            for link in machine.links
        ],
    }


def calibration_summary(calibration: Calibration) -> Dict[str, Any]:
    """The calibration constants, flattened to JSON-ready values."""
    if is_dataclass(calibration):
        return asdict(calibration)
    return {"repr": repr(calibration)}


def phase_record(cost: PhaseCost) -> Dict[str, Any]:
    """One phase's cost as a manifest entry with its bottleneck chain."""
    return {
        "label": cost.label,
        "seconds": cost.seconds,
        "bottleneck": cost.bottleneck,
        "occupancy": dict(cost.occupancy),
        "utilization": utilization(cost),
        "bottleneck_chain": bottleneck_chain(cost),
    }


@dataclass
class RunManifest:
    """One priced run: config in, per-phase attribution out."""

    kind: str  # e.g. "nopa", "coop[het]"
    machine: Dict[str, Any]
    workload: Dict[str, Any]
    config: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    calibration: Dict[str, Any] = field(default_factory=dict)
    #: Fault-injection audit (schema 1.1): the ``section()`` of a
    #: :class:`repro.faults.ResilienceLog`, or None for fault-free runs.
    resilience: Optional[Dict[str, Any]] = None
    #: Optimizer decision (schema 1.2): the ``section()`` of a
    #: :class:`repro.logical.OptimizerResult` — which physical plan was
    #: chosen and every alternative considered — or None for runs whose
    #: physical configuration was hand-picked.
    optimizer: Optional[Dict[str, Any]] = None
    #: Serving-layer outcome (schema 1.3): the ``section()`` of a
    #: :class:`repro.serve.ServingRecord` — arrival/start/finish and
    #: the contention stretch the multi-query scheduler assigned — or
    #: None for runs priced outside the serving engine.
    serving: Optional[Dict[str, Any]] = None

    @property
    def bottleneck_summary(self) -> List[str]:
        """``["build -> mem:gpu0-mem", "probe -> link:nvlink0"]``."""
        return [
            f"{phase['label'] or '(phase)'} -> {phase['bottleneck']}"
            for phase in self.phases
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation, schema version included."""
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "kind": self.kind,
            "machine": self.machine,
            "workload": self.workload,
            "config": self.config,
            "phases": self.phases,
            "bottleneck_summary": self.bottleneck_summary,
            "results": self.results,
            "metrics": self.metrics,
            "spans": self.spans,
            "calibration": self.calibration,
            "resilience": self.resilience,
            "optimizer": self.optimizer,
            "serving": self.serving,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: "Path | str") -> Path:
        """Write the manifest JSON to ``path`` and return the path."""
        out = Path(path)
        out.write_text(self.to_json() + "\n")
        return out


def build_manifest(
    kind: str,
    machine: Machine,
    phases: List[PhaseCost],
    workload: Optional[Dict[str, Any]] = None,
    config: Optional[Dict[str, Any]] = None,
    results: Optional[Dict[str, Any]] = None,
    obs: Optional[Any] = None,
    calibration: Optional[Calibration] = None,
    resilience: Optional[Dict[str, Any]] = None,
    optimizer: Optional[Dict[str, Any]] = None,
    serving: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Assemble a manifest from priced phases plus observability state.

    ``obs`` is an :class:`repro.obs.Observability` bundle (or anything
    with ``metrics.snapshot()`` / ``tracer.timeline.to_dicts()``).
    ``resilience`` is a :meth:`repro.faults.ResilienceLog.section` dump
    for chaos runs; fault-free runs leave it None.  ``optimizer`` is a
    :meth:`repro.logical.OptimizerResult.section` dump for runs whose
    physical plan the optimizer chose; hand-configured runs leave it
    None.  ``serving`` is a :meth:`repro.serve.ServingRecord.section`
    dump for queries served by the multi-query engine; standalone runs
    leave it None.
    """
    manifest = RunManifest(
        kind=kind,
        machine=machine_summary(machine),
        workload=dict(workload or {}),
        config=dict(config or {}),
        phases=[phase_record(cost) for cost in phases],
        results=dict(results or {}),
        resilience=resilience,
        optimizer=optimizer,
        serving=serving,
    )
    if obs is not None:
        manifest.metrics = obs.metrics.snapshot()
        manifest.spans = obs.tracer.timeline.to_dicts()
    if calibration is not None:
        manifest.calibration = calibration_summary(calibration)
    return manifest


def write_manifest_file(
    path: "Path | str", manifests: List[RunManifest], generator: str
) -> Path:
    """Write several runs into one schema-versioned manifest document."""
    document = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generator": generator,
        "runs": [m.to_dict() for m in manifests],
    }
    out = Path(path)
    out.write_text(json.dumps(document, indent=2) + "\n")
    return out


def check_changelog(doc_path: "Path | str") -> None:
    """Fail if the current schema version has no changelog entry.

    CI's bench-smoke job runs this so a schema drift cannot merge
    silently: any bump of :data:`MANIFEST_SCHEMA_VERSION` must land
    together with a line mentioning it in the schema-changelog section
    of ``docs/observability.md``.
    """
    text = Path(doc_path).read_text()
    needle = f"`{MANIFEST_SCHEMA_VERSION}`"
    if needle not in text:
        raise SystemExit(
            f"manifest schema version {MANIFEST_SCHEMA_VERSION} has no "
            f"changelog entry in {doc_path}; add a line mentioning "
            f"{needle} to the schema changelog before shipping the bump"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.manifest --check-changelog docs/observability.md``"""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-changelog",
        metavar="DOC",
        help="verify the schema version is recorded in the given doc",
    )
    args = parser.parse_args(argv)
    if args.check_changelog:
        check_changelog(args.check_changelog)
        print(
            f"manifest schema {MANIFEST_SCHEMA_VERSION}: changelog entry found"
        )
        return 0
    print(MANIFEST_SCHEMA_VERSION)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
