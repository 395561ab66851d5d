"""Cold planning prices statistics only, and prunes without moving a
decision.

Building a registry query and optimizing it generate no column, and the
optimizer's candidates leave nothing behind in its inert observability
bundle.  ``cold_planning_oracle.json`` holds every candidate's
``(config, seconds, rejected)`` as exhaustive pricing produced them,
before the optimizer pruned with a bound: every candidate it still
prices must cost the same bits, every one it prunes must lose to the
chosen one, and the served manifest outside its ``optimizer`` section
must hash as it did then.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

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

#: per pair: the chosen index, the served manifest's sha256 without its
#: ``optimizer`` section, and ``[config, seconds, rejected]`` per
#: candidate in enumeration order, all from exhaustive pricing.
ORACLE = json.loads(
    (Path(__file__).parent / "cold_planning_oracle.json").read_text()
)

#: sha256 of ``OptimizerResult.section()`` and of the served manifest.
SECTIONS = {
    "q6@ibm-ac922":
        "405d9a5a2bdfaa760445f92faad62bfbf66aa2a98fbfdd8df8cc357f75319866",
    "join-a@ibm-ac922":
        "91a91e3d3fcce88aa83d6c003e2f4eb174af8324624dad942c943dc140902831",
    "join-b@ibm-ac922":
        "e8140c7faea7714d6c3e016c0fa0c1ba0c86ca5f190a8565b314907339596670",
    "join-sel@ibm-ac922":
        "dfd2d1a45012d469b3d2b20cdda2b5f8addb5a281bdb711478d992460bd1658b",
    "star@ibm-ac922":
        "7c9d2ab2320e25355c2736334e117921fe1be46fbbd0830ecbbada721c89727c",
    "q6@intel-xeon-v100":
        "0d212ac1710105f584bc9dee30e6264e2b3bbdabc203837a826f81af6c25cf55",
    "join-a@intel-xeon-v100":
        "a70c709b544cf7dc14297ff0327172bddafe1e0e9b766a2d7eb407c879696db7",
    "join-b@intel-xeon-v100":
        "f94b9643949083a53121b054caa8c1e7713456e487bfe4d3ffc51b5d25f5aa43",
    "join-sel@intel-xeon-v100":
        "b890b50a7370964fec21f123b18e55e8e6dc2edc1dbc5319d3986782a1dbdefd",
}
MANIFESTS = {
    "q6@ibm-ac922":
        "aa2b2e738f19b653f91a28bc43624eabf4e12cbf0b61fafff274ac9a2edd6676",
    "join-a@ibm-ac922":
        "0038a9ff1e4e7ea3cf852bbc89c9286cdd2cf12e777352a571f5d2aad67a2160",
    "join-b@ibm-ac922":
        "359b134bd5b7cbf19f8b193b68517ba660425473f6dd284dd8e75fb586cc2142",
    "join-sel@ibm-ac922":
        "1b6dc5c8455496ff5aedd07a93cc999e92ec784ee94e7882d18a6214947788de",
    "star@ibm-ac922":
        "4da9f0ce085dd8b154a4387a9c95ebc6918c4b813da57485ea9a93248e197e05",
    "q6@intel-xeon-v100":
        "b3b6a5b8c18bd92e8c00e12866da11577488d9b8a0ac267f8ead6ed682ea6138",
    "join-a@intel-xeon-v100":
        "93766129e3337188d405b80d4821fcfbc874b823430ab6f56c4c11fb66f70f89",
    "join-b@intel-xeon-v100":
        "e5a1c3ed1a2db2353887e984fc2d5ecdbd3a1cc34772f3761e9e1fd4245c0183",
    "join-sel@intel-xeon-v100":
        "c29480500c04077e33a40634c11d613e77d17bdc64ffa58817281a30563fa818",
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
    del manifest["optimizer"]
    oracle = ORACLE[f"{workload}@{machine}"]
    assert sha256(manifest) == oracle["manifest_without_optimizer"]


@pytest.mark.parametrize("workload,machine", PAIRS)
def test_pruning_keeps_every_exhaustive_decision(workload, machine):
    oracle = ORACLE[f"{workload}@{machine}"]
    result = explain_workload(workload, machine)
    chosen = oracle["chosen"]
    assert result.candidates.index(result.chosen) == chosen
    best = (oracle["candidates"][chosen][1], chosen)
    assert len(result.candidates) == len(oracle["candidates"])
    for index, (candidate, (config, seconds, rejected)) in enumerate(
        zip(result.candidates, oracle["candidates"])
    ):
        assert candidate.config.describe() == config
        assert candidate.rejected == rejected
        if rejected is not None:
            assert candidate.bound is None and candidate.seconds is None
            continue
        assert candidate.bound <= seconds
        if candidate.pruned:
            assert (seconds, index) > best
        else:
            assert repr(candidate.seconds) == repr(seconds)


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
