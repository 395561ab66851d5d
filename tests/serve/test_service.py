"""QueryService end to end: submit -> price -> admit -> schedule."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.manifest import MANIFEST_SCHEMA_VERSION
from repro.serve import (
    AdmissionError,
    QueryService,
    TenantQuota,
    modeled_query_bytes,
    percentile,
)
from repro.logical.explain import WORKLOADS


class TestFrontDoor:
    def test_unknown_workload_rejected_at_submit(self):
        service = QueryService()
        with pytest.raises(KeyError, match="unknown workload"):
            service.submit("alpha", "nonsense", 0.0)

    def test_unknown_machine_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown machine"):
            QueryService(machine="cray-1")

    def test_negative_arrival_rejected(self):
        service = QueryService()
        with pytest.raises(ValueError):
            service.submit("alpha", "join-b", -1.0)

    @pytest.mark.parametrize(
        "arrival", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_arrival_rejected(self, arrival):
        # nan compares false against every bound; accepted, it would
        # kill the next serve() inside the simulator after the request
        # log had been drained, losing every other request with it.
        service = QueryService()
        with pytest.raises(ValueError, match="arrival"):
            service.submit("alpha", "join-b", arrival)
        assert service.pending == 0

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, deadline):
        service = QueryService()
        with pytest.raises(ValueError, match="deadline"):
            service.submit("alpha", "join-b", 0.0, deadline=deadline)
        assert service.pending == 0

    def test_service_still_serves_after_a_rejected_submit(self):
        service = QueryService()
        with pytest.raises(ValueError):
            service.submit("alpha", "q6", float("nan"))
        request = service.submit("alpha", "q6", 0.0)
        report = service.serve()
        assert [q.request for q in report.served] == [request]

    def test_request_ids_are_unique_and_ordered(self):
        service = QueryService()
        first = service.submit("alpha", "join-b", 0.0)
        second = service.submit("beta", "join-b", 1.0)
        assert (first.request_id, second.request_id) == (0, 1)
        assert service.pending == 2

    def test_thread_pool_submission_is_safe(self):
        service = QueryService()
        with ThreadPoolExecutor(max_workers=8) as pool:
            requests = list(
                pool.map(
                    lambda i: service.submit("alpha", "join-b", 0.01 * i),
                    range(64),
                )
            )
        assert service.pending == 64
        assert sorted(r.request_id for r in requests) == list(range(64))


class TestServing:
    def test_single_query_latency_equals_solo_makespan(self):
        service = QueryService()
        service.submit("alpha", "join-b", 0.0)
        report = service.serve()
        assert len(report.served) == 1
        query = report.served[0]
        assert query.latency == pytest.approx(query.solo_seconds)
        assert report.makespan == pytest.approx(query.solo_seconds)

    def test_concurrent_queries_stretch_but_never_shrink(self):
        service = QueryService()
        for _ in range(3):
            service.submit("alpha", "join-b", 0.0)
        report = service.serve()
        assert len(report.served) == 3
        solo = report.served[0].solo_seconds
        for query in report.served:
            assert query.latency >= solo - 1e-9
        # three identical queries over one machine: at least one must
        # be materially stretched.
        assert max(q.latency for q in report.served) > 1.5 * solo

    def test_quota_exceeding_tenant_rejected_with_typed_error(self):
        service = QueryService(
            quotas={"greedy": TenantQuota(max_in_flight=1)}
        )
        service.submit("greedy", "join-b", 0.0)
        service.submit("greedy", "join-b", 0.0)
        report = service.serve()
        assert len(report.served) == 1
        assert len(report.rejections) == 1
        error = report.rejections[0].error
        assert isinstance(error, AdmissionError)
        assert error.tenant == "greedy"
        assert error.quota == "in_flight"

    def test_bytes_quota_uses_modeled_not_executed_scale(self):
        _desc, build = WORKLOADS["join-a"]
        modeled = modeled_query_bytes(build())
        service = QueryService(
            quotas={"tiny": TenantQuota(max_modeled_bytes=modeled / 2)}
        )
        service.submit("tiny", "join-a", 0.0)
        report = service.serve()
        assert not report.served
        assert report.rejections[0].error.quota == "modeled_bytes"

    def test_plan_cache_hits_on_repeated_workloads(self):
        service = QueryService()
        for i in range(4):
            service.submit("alpha", "join-b", 0.1 * i)
        report = service.serve()
        assert report.cache["hits"] >= 3
        assert report.cache["hit_rate"] > 0
        hits = [q for q in report.served if q.cache_hit]
        assert len(hits) == 3

    def test_serve_drains_the_request_log(self):
        service = QueryService()
        service.submit("alpha", "join-b", 0.0)
        service.serve()
        assert service.pending == 0
        follow_up = service.serve()
        assert not follow_up.served

    def test_mixed_workloads_all_finish(self):
        service = QueryService()
        names = ["q6", "join-b", "star", "q6", "join-b"]
        for i, name in enumerate(names):
            service.submit("alpha", name, 0.05 * i)
        report = service.serve()
        assert len(report.served) == len(names)
        assert report.peak_concurrency >= 2
        assert report.cache["hits"] == 2


class TestMakespan:
    """``makespan`` is the last terminal event, not the final clock of a
    completion that was superseded before it fired."""

    def test_makespan_is_the_last_finish_under_contention(self):
        from repro.bench import serving_latency

        service = serving_latency.build_service()
        serving_latency.submit_load(service, 24)
        report = service.serve()
        assert report.peak_concurrency >= 2 and report.rejections
        assert report.makespan == max(q.finish for q in report.served)


class TestManifests:
    def test_served_query_manifest_has_serving_section(self):
        service = QueryService()
        request = service.submit("tenant-x", "star", 1.25)
        report = service.serve()
        manifest = report.served[0].manifest
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        serving = manifest["serving"]
        assert serving["request_id"] == request.request_id
        assert serving["tenant"] == "tenant-x"
        assert serving["workload"] == "star"
        assert serving["arrival"] == 1.25
        assert serving["latency"] == pytest.approx(
            serving["finish"] - serving["arrival"]
        )
        assert serving["stretch"] == pytest.approx(1.0)
        assert serving["cache_hit"] is False

    def test_manifest_carries_optimizer_section_and_is_json(self):
        service = QueryService()
        service.submit("alpha", "join-b", 0.0)
        report = service.serve()
        manifest = report.served[0].manifest
        assert manifest["optimizer"] is not None
        assert manifest["optimizer"]["predicted_seconds"] > 0
        assert manifest["phases"], "solo phases must be recorded"
        json.dumps(manifest)  # fully JSON-serializable

    def test_report_percentiles(self):
        service = QueryService()
        for i in range(10):
            service.submit("alpha", "star", 0.001 * i)
        report = service.serve()
        latencies = report.latencies()
        assert len(latencies) == 10
        assert report.latency_percentile(0.5) == percentile(latencies, 0.5)
        assert report.latency_percentile(0.99) >= report.latency_percentile(
            0.5
        )


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
