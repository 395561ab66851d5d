"""Chaos-serving suite: seeded determinism and fault-free identity.

Two invariants gate this suite in CI:

1. **Chaos determinism** — serving under any committed chaos seed
   (`repro.faults.SERVING_CHAOS_SEEDS`) twice produces bit-identical
   reports and per-query manifests: every retry delay, breaker
   transition, and degraded rate re-solve happens in virtual time from
   seeded draws.
2. **Fault-free identity** — with no fault plan installed and the
   default (inert) policy, the resilience-aware serving path prices
   exactly as the fault-free engine: the solo-priced phases of a
   served query match the committed ``baselines/serving_latency.json``
   bit for bit, and the schema-1.4 serving fields sit at their inert
   defaults.
"""

import json

import pytest

from repro.bench.baselines import load, path_of
from repro.faults import SERVING_CHAOS_SEEDS, serving_chaos_plan
from repro.serve import QueryService, ServicePolicy

#: per-seed serving scenario: the 404 transients and 505 degrade runs
#: use the plain service; 606 drives join-b into the breaker.
SCENARIO_POLICIES = {
    404: None,
    505: None,
    606: ServicePolicy(breaker_threshold=2, breaker_cooldown=50.0),
}


def _submit_mix(service, n=8):
    names = ("q6", "join-b")
    for i in range(n):
        service.submit("chaos", names[i % len(names)], 0.4 * i)
    return n


def _serve_under_seed(seed):
    service = QueryService(policy=SCENARIO_POLICIES[seed])
    submitted = _submit_mix(service)
    with serving_chaos_plan(seed).install():
        report = service.serve()
    return report, submitted


def _fingerprint(report):
    return json.dumps(
        {
            "manifests": [q.manifest for q in report.served],
            "deadline": [q.manifest for q in report.deadline_exceeded],
            "failed": [q.manifest for q in report.failed],
            "shed": [s.describe() for s in report.shed],
            "rejections": [
                (r.request.request_id, str(r.error))
                for r in report.rejections
            ],
            "outcomes": report.outcome_counts(),
            "makespan": report.makespan,
            "breaker": report.breaker,
            "resilience": report.resilience,
        },
        sort_keys=True,
    )


class TestChaosDeterminism:
    @pytest.mark.parametrize("seed", SERVING_CHAOS_SEEDS)
    def test_same_seed_serves_bit_identically(self, seed):
        first, submitted = _serve_under_seed(seed)
        second, _ = _serve_under_seed(seed)
        assert _fingerprint(first) == _fingerprint(second)
        assert first.conservation(submitted)

    def test_chaos_seeds_produce_distinct_outcomes(self):
        reports = {
            seed: _serve_under_seed(seed)[0]
            for seed in SERVING_CHAOS_SEEDS
        }
        # 404: transient first-attempt failures, all recovered.
        assert reports[404].total_retries() > 0
        assert not reports[404].failed
        # 606: join-b fails every attempt; the breaker opens.
        assert reports[606].outcome_counts()["failed"] >= 1
        assert reports[606].breaker["join-b"]["opens_total"] >= 1
        # every scenario keeps the resilience audit trail.
        for report in reports.values():
            assert report.resilience is not None
            assert report.resilience["plan"] is not None


class TestDegradeScenario:
    def test_degraded_link_stretches_linked_queries_only(self):
        # warm the plan cache fault-free so the 505 DegradeLink rule
        # exercises the scheduler's capacity path, not solo pricing.
        service = QueryService()
        service.submit("warm", "join-a", 0.0)
        service.submit("warm", "q6", 0.0)
        service.serve()

        solo = {}
        service.submit("probe", "join-a", 0.0)
        report = service.serve()
        solo["join-a"] = report.served[0].latency
        service.submit("probe", "q6", 0.0)
        solo["q6"] = service.serve().served[0].latency

        service.submit("chaos", "join-a", 0.0)
        service.submit("chaos", "q6", 100.0)  # disjoint in time
        with serving_chaos_plan(505).install():
            degraded = service.serve()
        by_workload = {
            q.request.workload: q for q in degraded.served
        }
        # join-a's probe phase saturates the NVLink; halving the link
        # capacity must stretch it materially.
        assert (
            by_workload["join-a"].latency > 1.5 * solo["join-a"] - 1e-9
        )
        # q6 runs CPU-side with no link occupancy: unaffected.
        assert by_workload["q6"].latency == pytest.approx(solo["q6"])


class TestFaultFreeIdentity:
    def test_served_phases_match_pr9_baseline_bit_for_bit(self):
        reference = {
            run["kind"]: run
            for run in load(path_of("serving_latency"))
            if run["kind"].startswith("serve[")
        }
        service = QueryService()
        for workload in ("join-b", "join-a", "q6"):
            service.submit("tenant-a", workload, 0.0)
            report = service.serve()
            manifest = report.served[0].manifest
            kind = f"serve[{workload}@ibm-ac922]"
            assert kind in reference
            # exact float equality: the resilience-aware path must not
            # perturb fault-free pricing by a single ULP.
            expected = reference[kind]["phases"]
            actual = manifest["phases"]
            assert [p["seconds"] for p in actual] == [
                p["seconds"] for p in expected
            ]
            assert [p["label"] for p in actual] == [
                p["label"] for p in expected
            ]

    def test_fault_free_serving_fields_are_inert(self):
        service = QueryService()
        service.submit("tenant-a", "q6", 0.0)
        report = service.serve()
        serving = report.served[0].manifest["serving"]
        assert serving["outcome"] == "finished"
        assert serving["deadline"] is None
        assert serving["cancelled_at"] is None
        assert serving["retries"] == 0
        assert serving["shed_reason"] is None
        assert serving["breaker_state"] is None
        assert report.served[0].manifest["resilience"] is None
        assert report.resilience is None
        assert report.breaker == {}

    def test_fault_free_rerun_is_bit_identical(self):
        def run():
            service = QueryService()
            _submit_mix(service)
            return service.serve()

        assert _fingerprint(run()) == _fingerprint(run())
