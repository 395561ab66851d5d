"""Cold planning prices statistics only.

Building a registry query and optimizing it generate no column, and the
optimizer's candidates leave nothing behind in its inert observability
bundle.  The digests were recorded while planning still generated the
registry's columns and recorded every candidate's spans and metrics:
neither may move a priced number or a manifest byte.
"""

import hashlib
import json
import tracemalloc

import pytest

from repro.data.relation import DeferredColumn
from repro.logical import explain
from repro.logical.algebra import Scan
from repro.logical.explain import MACHINES, WORKLOADS, explain_workload
from repro.obs import INERT
from repro.serve import QueryService

#: every registry workload on both machines, except ``star`` on the
#: PCI-e machine, which is typed-infeasible there.
PAIRS = [
    (workload, machine)
    for machine in MACHINES
    for workload in WORKLOADS
    if (workload, machine) != ("star", "intel-xeon-v100")
]

#: sha256 of ``OptimizerResult.section()`` and of the served manifest.
SECTIONS = {
    "q6@ibm-ac922":
        "772cffeeb9d89a5abe41edf88d675f56413c1f886e7d40593d77b0f7bab85d7d",
    "join-a@ibm-ac922":
        "217f6654eae9243e58e8d8e8c9069d88cda190d9a30106229d9443cce6c30022",
    "join-b@ibm-ac922":
        "6e57e1d09fd8cfc2fc115e44b9258f6b81fbac076e16959fb8ea2cc9b1249220",
    "join-sel@ibm-ac922":
        "b384852b6d8c9bc5f7be49e81b843892f4fd2089fe05a1d1397820f2e4d8a076",
    "star@ibm-ac922":
        "9ad2b777ed3ca86a3086b95f4fcbb83eacb1107eb3c3955f84fe7f8af490c221",
    "q6@intel-xeon-v100":
        "731f0983a09fe48da97f595a2d16c8ce6c35a6ac92567a93e3b48d935fd86f79",
    "join-a@intel-xeon-v100":
        "839dbfa8eab7edfe0eed53d91c47fae4ccb4906ab9666ee78bdadfe670bddfac",
    "join-b@intel-xeon-v100":
        "0f6a8c3a9724f9ca57183e6b8235fa10539b06dbbd2f91e81af395343abbb373",
    "join-sel@intel-xeon-v100":
        "2bc1fb279131c7c1ce7e68cca302f72b42c75ae3fb8950ec31784c9c471d1f15",
}
MANIFESTS = {
    "q6@ibm-ac922":
        "a6baef68032286343ecc165e885281798f34e047b05e564f1a6a747c63de345d",
    "join-a@ibm-ac922":
        "655834aef150e0c7cb597292490db91871afb87ba20b78638f7a5aa593cb745c",
    "join-b@ibm-ac922":
        "7e6405491358a4ecdbfd2b9612305cdc0b0786f05debac715ad958ba4a68e2f0",
    "join-sel@ibm-ac922":
        "dec94ad0d617ba68d7b7a63ff7e0a0341f51937b087e7751326d2736cda77471",
    "star@ibm-ac922":
        "4b5f9e0ecfad6d5fdc5f84ff2884d2171109d2e0557861b336d21c86e7e6c784",
    "q6@intel-xeon-v100":
        "c5ab50a8e1bf2d9ea2cc57e421ca065b7cdfaf6659ab25d17127ce055d62a5eb",
    "join-a@intel-xeon-v100":
        "1cc4a543b1bdfd9669d07b880aebf2e5f683cd4ebf03e753a5c31bc6eb75d829",
    "join-b@intel-xeon-v100":
        "71af6913a37471612745d2ac6e6c106a83fe6cc30ad2ee6357278c32845b7922",
    "join-sel@intel-xeon-v100":
        "d944375576cf754be450a65d0ad3faea99ae2ceefcb313ad75db65a268261f16",
}

PLANNING_PEAK_BYTES = 2 << 20


def sha256(document):
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def served_manifest(workload, machine):
    service = QueryService(machine)
    service.submit("tenant", workload, 0.0)
    (query,) = service.serve().served
    return query.manifest


@pytest.mark.parametrize("workload,machine", PAIRS)
def test_optimizer_section_is_unchanged(workload, machine):
    section = explain_workload(workload, machine).section()
    assert sha256(section) == SECTIONS[f"{workload}@{machine}"]


@pytest.mark.parametrize("workload,machine", PAIRS)
def test_served_manifest_is_unchanged(workload, machine):
    manifest = served_manifest(workload, machine)
    assert sha256(manifest) == MANIFESTS[f"{workload}@{machine}"]


def test_inert_bundle_keeps_nothing():
    for workload, machine in PAIRS:
        explain_workload(workload, machine)
    with INERT.tracer.span("probe", worker="gpu0") as span:
        span.advance(1.0)
        span.annotate(bottleneck="link")
        span.add_units(5)
    INERT.metrics.counter("link_bytes_total", link="nvlink").inc(7)
    INERT.metrics.gauge("cache_hit_rate").set(0.5)
    INERT.metrics.histogram("dispatch_batch_tuples").observe(3)
    assert INERT.timeline.spans == []
    assert len(INERT.metrics) == 0
    assert INERT.metrics.snapshot() == {}
    assert INERT.clock.now == 0.0
    assert span.attrs == {} and span.units == 0.0


@pytest.mark.parametrize("workload,machine", PAIRS)
def test_planning_allocates_no_column(workload, machine):
    """Eager generation of the registry's columns peaked at 24-41 MiB here."""
    QueryService(machine)._price_workload(workload)  # warm imports
    service = QueryService(machine)
    tracemalloc.start()
    try:
        service._price_workload(workload)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PLANNING_PEAK_BYTES


def test_serving_generates_no_registry_column(monkeypatch):
    built = {}

    def capture(name, build):
        def wrapped():
            built[name] = build()
            return built[name]

        return wrapped

    for name, (description, build) in list(WORKLOADS.items()):
        monkeypatch.setitem(
            explain.WORKLOADS, name, (description, capture(name, build))
        )
    for machine in MACHINES:
        service = QueryService(machine)
        for i, (workload, pair_machine) in enumerate(PAIRS):
            if pair_machine == machine:
                service.submit("tenant", workload, 10.0 * i)
        assert len(service.serve().served) == service.cache.stats()["misses"]

    assert set(built) == set(WORKLOADS)
    for name, query in built.items():
        sources = [
            node.source for node in query.node.walk() if isinstance(node, Scan)
        ]
        deferred = [
            column
            for source in sources
            for column in (
                source if isinstance(source, dict) else source.columns()
            ).values()
            if isinstance(column, DeferredColumn)
        ]
        # star's small dimension arrays are built eagerly; every
        # generated workload's columns are deferred.
        assert deferred or name == "star"
        assert not any(column.source.generated for column in deferred), name
