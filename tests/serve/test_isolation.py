"""Per-query observability isolation under concurrency.

Two queries served *concurrently* must produce manifests bit-identical
to the same queries served *alone* — no cross-query bleed in
``MetricsRegistry`` counters, span timelines, or phase costs.  Only the
``serving`` section (arrival/finish/stretch on the shared machine) may
differ; everything the solo pricing produced is pinned byte for byte,
mirroring the PR-4 snapshot-equality style.
"""

import copy
import json

from repro.bench.serving_latency import (
    GREEDY_BURST,
    MIX,
    build_service,
    submit_load,
)
from repro.faults import FailQuery, FaultPlan
from repro.serve import QueryService, ServicePolicy
from repro.serve.cache import workload_fingerprint
from repro.serve.request import QueryRequest, ServedQuery


def _solo_manifest(workload: str) -> dict:
    service = QueryService()
    service.submit("solo", workload, 0.0)
    report = service.serve()
    assert len(report.served) == 1
    return report.served[0].manifest


def _without_serving(manifest: dict) -> str:
    stripped = {k: v for k, v in manifest.items() if k != "serving"}
    return json.dumps(stripped, sort_keys=True)


class TestObservabilityIsolation:
    def test_concurrent_manifests_identical_to_solo(self):
        workloads = ["join-b", "q6"]
        solo = {name: _solo_manifest(name) for name in workloads}

        service = QueryService()
        for name in workloads:
            service.submit("alpha", name, 0.0)
        report = service.serve()
        assert len(report.served) == 2

        for query in report.served:
            name = query.request.workload
            assert _without_serving(query.manifest) == _without_serving(
                solo[name]
            ), f"cross-query bleed in {name} manifest"

    def test_cache_hit_manifest_identical_to_cold_pricing(self):
        service = QueryService()
        service.submit("alpha", "star", 0.0)
        service.submit("alpha", "star", 5.0)  # far apart: no overlap
        report = service.serve()
        first = report.query(0)
        second = report.query(1)
        assert not first.cache_hit and second.cache_hit
        assert _without_serving(first.manifest) == _without_serving(
            second.manifest
        )

    def test_concurrent_metrics_sections_do_not_accumulate(self):
        # Serving the same workload twice concurrently must not double
        # any metric counter relative to the solo run.
        solo = _solo_manifest("join-b")

        service = QueryService()
        service.submit("a", "join-b", 0.0)
        service.submit("b", "join-b", 0.0)
        report = service.serve()
        for query in report.served:
            assert (
                json.dumps(query.manifest["metrics"], sort_keys=True)
                == json.dumps(solo["metrics"], sort_keys=True)
            )
            assert (
                json.dumps(query.manifest["spans"], sort_keys=True)
                == json.dumps(solo["spans"], sort_keys=True)
            )

    def test_serving_sections_do_differ_under_contention(self):
        service = QueryService()
        service.submit("a", "join-b", 0.0)
        service.submit("b", "join-b", 0.0)
        report = service.serve()
        stretches = [
            q.manifest["serving"]["stretch"] for q in report.served
        ]
        assert any(s > 1.5 for s in stretches)


class TestManifestCopiedOnFirstRead:
    """A query's private manifest leaves the cache when it is read.

    ``serve()`` hands every query a reference to its shared
    ``PlanCacheEntry``; ``PlanCacheEntry.manifest_copy`` — the one
    ``deepcopy`` site — runs on the first ``ServedQuery.manifest`` read
    and never during the pass.
    """

    def test_serve_pass_copies_nothing_reads_copy_once(self, monkeypatch):
        service = build_service()
        for name in MIX:  # warm the plan cache: pricing is not under test
            service.submit("warm", name, 0.0)
        service.serve()

        calls = []
        real_deepcopy = copy.deepcopy

        def counting_deepcopy(obj, memo=None):
            if memo is None:  # top-level calls only, not the recursion
                calls.append(type(obj))
            return real_deepcopy(obj, memo)

        monkeypatch.setattr(
            "repro.serve.cache.copy.deepcopy", counting_deepcopy
        )

        submit_load(service, 200)
        report = service.serve()
        assert report.rejections, "the greedy burst must be rejected"
        assert report.cache["misses"] == len(MIX)
        assert report.conservation(200 + GREEDY_BURST)
        assert calls == [], "serve() deep-copied a manifest"

        readers = report.served[:5]
        manifests = [query.manifest for query in readers]
        assert len(calls) == len(readers)
        for query, manifest in zip(readers, manifests):
            assert query.manifest is manifest  # second read: same dict
        assert len(calls) == len(readers)

    def test_mutating_one_hit_reaches_no_other_query_nor_the_cache(self):
        service = QueryService()
        for i in range(4):
            service.submit("alpha", "star", 5.0 * i)  # no overlap
        report = service.serve()
        _miss, first, second, third = (report.query(i) for i in range(4))
        assert first.cache_hit and second.cache_hit and third.cache_hit

        pristine = json.dumps(second.manifest, sort_keys=True)
        entry = service.cache.get(workload_fingerprint("star", "ibm-ac922"))
        cached = json.dumps(entry.manifest, sort_keys=True)
        first.manifest["results"]["solo_seconds"] = -1.0
        first.manifest["phases"][0] = "scribbled"
        first.manifest["serving"]["stretch"] = -1.0

        assert json.dumps(second.manifest, sort_keys=True) == pristine
        assert json.dumps(entry.manifest, sort_keys=True) == cached
        # materialised only now, after the scribbling: still pristine.
        assert _without_serving(third.manifest) == _without_serving(
            _solo_manifest("star")
        )

    def test_every_terminated_query_reads_a_stamped_manifest(self):
        service = QueryService(policy=ServicePolicy(default_deadline=0.6))
        for i in range(12):
            service.submit("alpha", ("q6", "star", "join-b")[i % 3], 0.05 * i)
        plan = FaultPlan(
            seed=7,
            rules=[FailQuery(probability=0.5, attempts=None, times=None)],
            name="isolation-chaos",
        )
        with plan.install():
            report = service.serve()
        assert report.served and report.deadline_exceeded and report.failed

        for query in (
            report.served + report.deadline_exceeded + report.failed
        ):
            # the contract: a private copy of the cached solo manifest
            # plus this query's own serving section.
            entry = service.cache.get(
                workload_fingerprint(
                    query.request.workload, query.request.machine
                )
            )
            expected = entry.manifest_copy()
            expected["serving"] = query.serving_record().section()
            assert list(query.manifest) == list(expected)
            assert json.dumps(query.manifest, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )
            assert query.manifest["serving"]["outcome"] == query.outcome

    def test_query_without_an_entry_reads_an_empty_manifest(self):
        query = ServedQuery(
            request=QueryRequest(0, "alpha", "synthetic", "ibm-ac922", 0.0),
            phases=[],
            solo_seconds=0.0,
        )
        assert query.manifest == {}
