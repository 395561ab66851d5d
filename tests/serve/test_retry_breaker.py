"""Serving-level retry with backoff and the per-workload breaker.

Unit tests pin the :class:`CircuitBreaker` state machine in virtual
time and the :class:`ServicePolicy` validation; the service-level
tests drive seeded :class:`FailQuery` plans through the whole
submit -> fault -> resubmit -> (finish | fail | fastfail) path.
"""

import pytest

from repro.faults import FailQuery, FaultPlan
from repro.faults.recovery import RetryPolicy
from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    QueryService,
    ServicePolicy,
)
from repro.serve.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_SERVING_RETRY,
    OUTCOME_FAILED,
)


class TestCircuitBreakerUnit:
    def test_disabled_breaker_always_allows(self):
        breaker = CircuitBreaker()
        assert not breaker.enabled
        for now in (0.0, 1.0, 2.0):
            breaker.record_failure("w", now)
            assert breaker.allow("w", now + 0.1)
        assert breaker.state("w") == BREAKER_CLOSED

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        assert breaker.record_failure("w", 1.0) == BREAKER_CLOSED
        assert breaker.record_failure("w", 2.0) == BREAKER_OPEN
        assert breaker.state("w", now=2.5) == BREAKER_OPEN
        assert not breaker.allow("w", 3.0)
        assert breaker.snapshot()["w"]["fastfails_total"] == 1
        assert breaker.snapshot()["w"]["opens_total"] == 1
        assert breaker.opened_at("w") == 2.0

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        breaker.record_failure("w", 1.0)
        breaker.record_success("w", 2.0)
        assert breaker.record_failure("w", 3.0) == BREAKER_CLOSED
        assert breaker.state("w") == BREAKER_CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure("w", 0.0)
        assert breaker.state("w", now=4.9) == BREAKER_OPEN
        assert breaker.state("w", now=5.1) == BREAKER_HALF_OPEN
        assert breaker.allow("w", 5.1)
        assert breaker.record_success("w", 5.2) == BREAKER_CLOSED
        assert breaker.allow("w", 5.3)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure("w", 0.0)
        assert breaker.state("w", now=6.0) == BREAKER_HALF_OPEN
        assert breaker.record_failure("w", 6.0) == BREAKER_OPEN
        assert not breaker.allow("w", 6.1)
        assert breaker.snapshot()["w"]["opens_total"] == 2

    def test_workloads_are_isolated(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure("bad", 0.0)
        assert not breaker.allow("bad", 1.0)
        assert breaker.allow("good", 1.0)
        assert breaker.state("good") == BREAKER_CLOSED


class TestServicePolicyValidation:
    def test_queue_depth_requires_max_active(self):
        with pytest.raises(ValueError):
            ServicePolicy(queue_depth=2)

    def test_stretch_limit_below_one_rejected(self):
        with pytest.raises(ValueError):
            ServicePolicy(stretch_limit=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stretch_limit", float("nan")),
            ("default_deadline", float("nan")),
            ("default_deadline", float("inf")),
            ("breaker_cooldown", float("nan")),
        ],
    )
    def test_values_that_would_silently_break_serving_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServicePolicy(**{field: value})

    def test_breaker_cooldown_nan_rejected(self):
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(threshold=1, cooldown=float("nan"))

    def test_infinite_stretch_limit_and_cooldown_stay_legal(self):
        policy = ServicePolicy(
            stretch_limit=float("inf"), breaker_threshold=2, breaker_cooldown=float("inf")
        )
        assert policy.build_breaker().cooldown == float("inf")

    def test_default_policy_is_inert(self):
        policy = ServicePolicy()
        assert policy.max_active is None
        assert policy.default_deadline is None
        assert not policy.build_breaker().enabled

    def test_breaker_threshold_enables_breaker(self):
        policy = ServicePolicy(breaker_threshold=3, breaker_cooldown=2.0)
        breaker = policy.build_breaker()
        assert breaker.enabled

    def test_default_serving_retry_backs_off_with_cap(self):
        delays = [DEFAULT_SERVING_RETRY.delay(i) for i in (1, 2, 3)]
        assert delays == [0.05, 0.1, 0.2]
        assert RetryPolicy(
            max_attempts=9, base_delay=0.05, factor=2.0, max_delay=0.3
        ).delay(8) == pytest.approx(0.3)


def _transient_plan(workload="q6"):
    """First attempts of ``workload`` fail; resubmissions succeed."""
    return FaultPlan(
        seed=7,
        rules=[
            FailQuery(
                workload=workload, probability=1.0, attempts=(0,), times=None
            )
        ],
        name="test-transients",
    )


def _always_fail_plan(times=None):
    return FaultPlan(
        seed=7,
        rules=[FailQuery(probability=1.0, attempts=None, times=times)],
        name="test-hard-faults",
    )


class TestServiceRetries:
    def test_transient_fault_recovers_via_retry(self):
        service = QueryService()
        service.submit("alpha", "q6", 0.0)
        with _transient_plan().install():
            report = service.serve()
        assert len(report.served) == 1
        query = report.served[0]
        assert query.retries == 1
        assert query.manifest["serving"]["retries"] == 1
        assert query.manifest["serving"]["outcome"] == "finished"
        # latency includes the backoff delay of the resubmission.
        assert (
            query.finish - query.request.arrival
            > query.solo_seconds + DEFAULT_SERVING_RETRY.delay(1) - 1e-9
        )
        assert report.total_retries() == 1
        assert report.conservation(1)

    def test_retry_recorded_in_resilience_section(self):
        service = QueryService()
        service.submit("alpha", "q6", 0.0)
        with _transient_plan().install():
            report = service.serve()
        assert report.resilience is not None
        actions = [e["action"] for e in report.resilience["events"]]
        assert actions.count("serving_retry") == 1
        assert report.resilience["counters"]["serving_retry"] == 1
        assert report.resilience["plan"] is not None

    def test_exhausted_retry_budget_fails_terminally(self):
        service = QueryService()
        service.submit("alpha", "q6", 0.0)
        with _always_fail_plan().install():
            report = service.serve()
        assert not report.served
        assert len(report.failed) == 1
        query = report.failed[0]
        assert query.outcome == OUTCOME_FAILED
        # max_attempts=3: attempts 0 and 1 were retried, attempt 2 is
        # terminal.
        assert query.retries == 2
        assert query.cancelled_at is not None
        serving = query.manifest["serving"]
        assert serving["outcome"] == "failed"
        assert serving["retries"] == 2
        assert report.outcome_counts()["failed"] == 1
        assert report.conservation(1)

    def test_failed_queries_release_admission(self):
        service = QueryService()
        for i in range(3):
            service.submit("alpha", "q6", 0.1 * i)
        with _always_fail_plan().install():
            report = service.serve()
        assert report.outcome_counts()["failed"] == 3
        service.admission.audit()


class TestServiceBreaker:
    def _arrivals(self, service, times, workload="q6"):
        for i, arrival in enumerate(times):
            service.submit("alpha", workload, arrival)

    def test_breaker_opens_and_fastfails(self):
        service = QueryService(
            policy=ServicePolicy(breaker_threshold=2, breaker_cooldown=100.0)
        )
        # spread arrivals so each failure completes before the next
        # arrival: two terminal failures open the breaker; the third
        # query is fastfailed without touching the machine.
        self._arrivals(service, [0.0, 10.0, 20.0])
        with _always_fail_plan().install():
            report = service.serve()
        assert report.outcome_counts()["failed"] == 2
        assert report.outcome_counts()["rejected"] == 1
        rejection = report.rejections[0]
        assert isinstance(rejection.error, CircuitOpenError)
        assert rejection.error.workload == "q6"
        assert report.breaker["q6"]["opens_total"] == 1
        assert report.breaker["q6"]["fastfails_total"] == 1
        assert report.breaker["q6"]["state"] == BREAKER_OPEN
        assert report.conservation(3)

    def test_fastfail_recorded_in_resilience_section(self):
        service = QueryService(
            policy=ServicePolicy(breaker_threshold=1, breaker_cooldown=100.0)
        )
        self._arrivals(service, [0.0, 10.0])
        with _always_fail_plan().install():
            report = service.serve()
        actions = [e["action"] for e in report.resilience["events"]]
        assert "breaker_fastfail" in actions

    def test_half_open_trial_closes_breaker_after_faults_drain(self):
        service = QueryService(
            policy=ServicePolicy(breaker_threshold=1, breaker_cooldown=5.0)
        )
        # query 0 burns its whole retry budget (3 attempts) and opens
        # the breaker; query 1 arrives inside the cooldown and is
        # fastfailed; query 2 arrives after the cooldown as the
        # half-open trial — the fault budget (times=3) is spent, so it
        # succeeds and closes the breaker.
        self._arrivals(service, [0.0, 2.0, 20.0])
        with _always_fail_plan(times=3).install():
            report = service.serve()
        assert report.outcome_counts() == {
            "finished": 1,
            "deadline_exceeded": 0,
            "failed": 1,
            "rejected": 1,
            "shed": 0,
        }
        assert report.breaker["q6"]["state"] == BREAKER_CLOSED
        assert report.breaker["q6"]["opens_total"] == 1
        served = report.served[0]
        assert served.manifest["serving"]["breaker_state"] == BREAKER_CLOSED

    def test_breaker_isolation_across_workloads(self):
        service = QueryService(
            policy=ServicePolicy(breaker_threshold=1, breaker_cooldown=100.0)
        )
        service.submit("alpha", "q6", 0.0)
        service.submit("alpha", "star", 10.0)
        plan = FaultPlan(
            seed=7,
            rules=[
                FailQuery(
                    workload="q6", probability=1.0, attempts=None, times=None
                )
            ],
            name="q6-only",
        )
        with plan.install():
            report = service.serve()
        assert report.outcome_counts()["failed"] == 1
        assert len(report.served) == 1
        assert report.served[0].request.workload == "star"
        assert report.breaker["q6"]["state"] == BREAKER_OPEN
