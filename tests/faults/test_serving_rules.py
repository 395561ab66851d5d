"""Serving-level fault rules: FailQuery draws and link capacity factors.

The serving scheduler consumes two plan hooks the executor-level chaos
rules never touch: ``check_query`` (phase-boundary query failures) and
``resource_factor`` (DegradeLink applied to the contention model's
``link:*`` resources).  Both must be seeded-deterministic, filterable,
and inert when no matching rule exists.
"""

import pytest

from repro.faults import (
    DegradeLink,
    FailQuery,
    FaultPlan,
    QueryFault,
    SERVING_CHAOS_SEEDS,
    serving_chaos_plan,
)


def _plan(rules, seed=11):
    return FaultPlan(seed=seed, rules=rules, name="test")


class TestFailQueryValidation:
    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FailQuery(probability=1.5)
        with pytest.raises(ValueError):
            FailQuery(probability=-0.1)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FailQuery(times=-1)

    def test_plan_accepts_fail_query_rules(self):
        plan = _plan([FailQuery()])
        assert "FailQuery" in plan.describe()["rules"][0]


class TestCheckQuery:
    def test_certain_rule_fires_and_records(self):
        plan = _plan([FailQuery(probability=1.0)])
        with pytest.raises(QueryFault):
            plan.check_query("q6", "alpha", 0, 0, 0)
        assert plan.injected_counts().get("query") == 1

    def test_no_query_rules_is_inert(self):
        plan = _plan([DegradeLink(factor=0.5)])
        plan.check_query("q6", "alpha", 0, 0, 0)
        assert not plan.injected

    def test_workload_filter(self):
        plan = _plan([FailQuery(workload="join-b", probability=1.0)])
        plan.check_query("q6", "alpha", 0, 0, 0)  # no raise
        with pytest.raises(QueryFault):
            plan.check_query("join-b", "alpha", 1, 0, 0)

    def test_tenant_filter(self):
        plan = _plan([FailQuery(tenant="beta", probability=1.0)])
        plan.check_query("q6", "alpha", 0, 0, 0)
        with pytest.raises(QueryFault):
            plan.check_query("q6", "beta", 1, 0, 0)

    def test_attempt_filter_default_first_attempt_only(self):
        plan = _plan([FailQuery(probability=1.0, times=None)])
        with pytest.raises(QueryFault):
            plan.check_query("q6", "alpha", 0, 0, 0)
        # attempt 1 (a resubmission) is exempt by construction.
        plan.check_query("q6", "alpha", 0, 0, 1)

    def test_attempts_none_fires_on_every_attempt(self):
        plan = _plan(
            [FailQuery(probability=1.0, attempts=None, times=None)]
        )
        for attempt in range(3):
            with pytest.raises(QueryFault):
                plan.check_query("q6", "alpha", 0, 0, attempt)

    def test_phase_filter(self):
        plan = _plan([FailQuery(phase=1, probability=1.0)])
        plan.check_query("q6", "alpha", 0, 0, 0)
        with pytest.raises(QueryFault):
            plan.check_query("q6", "alpha", 0, 1, 0)

    def test_times_budget_caps_fires(self):
        plan = _plan([FailQuery(probability=1.0, times=2)])
        for request_id in range(2):
            with pytest.raises(QueryFault):
                plan.check_query("q6", "alpha", request_id, 0, 0)
        plan.check_query("q6", "alpha", 2, 0, 0)  # budget spent

    def test_probabilistic_draws_are_seeded_deterministic(self):
        def fired(seed):
            plan = _plan(
                [FailQuery(probability=0.5, times=None)], seed=seed
            )
            hits = []
            for request_id in range(32):
                try:
                    plan.check_query("q6", "alpha", request_id, 0, 0)
                except QueryFault:
                    hits.append(request_id)
            return hits

        first = fired(123)
        assert fired(123) == first
        assert 0 < len(first) < 32
        assert fired(124) != first


class TestResourceFactor:
    def test_no_link_rules_returns_unity(self):
        plan = _plan([FailQuery()])
        assert plan.resource_factor("link:nvlink2[gpu0<->cpu0]") == 1.0

    def test_degrade_link_scales_link_resources_only(self):
        plan = _plan([DegradeLink(factor=0.5)])
        assert plan.resource_factor("link:nvlink2[gpu0<->cpu0]") == 0.5
        assert plan.resource_factor("mem:gpu0-mem") == 1.0
        assert plan.resource_factor("compute:cpu0") == 1.0

    def test_method_scoped_rules_do_not_degrade_the_solver(self):
        # a DegradeLink pinned to one transfer method models a pipeline
        # bandwidth loss, not a physical link capacity loss; the
        # scheduler's contention resources are untouched.
        plan = _plan([DegradeLink(factor=0.5, method="pipeline")])
        assert plan.resource_factor("link:nvlink2[gpu0<->cpu0]") == 1.0

    def test_src_memory_filter_matches_link_name(self):
        plan = _plan([DegradeLink(factor=0.25, src_memory="gpu0")])
        assert plan.resource_factor("link:nvlink2[gpu0<->cpu0]") == 0.25
        assert plan.resource_factor("link:xbus[cpu0<->cpu1]") == 1.0

    def test_factor_recorded_once_per_resource(self):
        plan = _plan([DegradeLink(factor=0.5)])
        for _ in range(5):
            plan.resource_factor("link:a")
        counts = plan.injected_counts()
        assert counts.get("degraded_link") == 1
        plan.resource_factor("link:b")
        assert plan.injected_counts()["degraded_link"] == 2

    def test_times_limited_rule_is_spent_by_its_last_recorded_fire(self):
        # times counts recorded fires: the first ask of a resource records
        # one and spends a times=1 rule, so no later ask sees it.
        plan = _plan([DegradeLink(factor=0.5, times=1)])
        assert plan.resource_factor("link:a") == 0.5
        assert len(plan.injected) == 1
        assert plan.resource_factor("link:a") == 1.0
        assert plan.resource_factor("link:b") == 1.0
        assert len(plan.injected) == 1


class TestServingChaosScenarios:
    def test_seed_catalogue_is_stable(self):
        assert SERVING_CHAOS_SEEDS == (404, 505, 606)

    def test_each_seed_builds_a_named_plan(self):
        for seed in SERVING_CHAOS_SEEDS:
            plan = serving_chaos_plan(seed)
            description = plan.describe()
            assert description["seed"] == seed
            assert description["name"].startswith("chaos-serving-")
            assert description["rules"]

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError, match="999"):
            serving_chaos_plan(999)
