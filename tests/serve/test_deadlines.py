"""Deadline enforcement: cancellation mid-phase, survivor re-timing, records.

Scheduler-level tests use synthetic ServedQuery fixtures (hand-written
phase costs) so the cancellation arithmetic is pinned exactly; the
service-level tests check the end-to-end surface — default deadlines,
typed outcomes, manifest fields, and the admission ledger returning to
zero after cancellations release their shares.
"""

import pytest

from repro.costmodel.model import PhaseCost
from repro.serve import QueryService, ServicePolicy
from repro.serve.policy import OUTCOME_DEADLINE, OUTCOME_FINISHED
from repro.serve.request import QueryRequest, ServedQuery
from repro.serve.scheduler import (
    ContentionScheduler,
    PhaseFault,
    SchedulerError,
)


def _phase(seconds, occupancy=None, label="work"):
    occupancy = (
        occupancy if occupancy is not None else {"mem:cpu0-mem": seconds}
    )
    bottleneck = (
        max(occupancy, key=occupancy.get) if occupancy else "(none)"
    )
    return PhaseCost(
        seconds=seconds,
        bottleneck=bottleneck,
        occupancy=occupancy,
        label=label,
    )


def _query(request_id, arrival, phases, deadline=None, tenant="alpha"):
    return ServedQuery(
        request=QueryRequest(
            request_id=request_id,
            tenant=tenant,
            workload="synthetic",
            machine="ibm-ac922",
            arrival=arrival,
            deadline=deadline,
        ),
        phases=phases,
        solo_seconds=sum(p.seconds for p in phases),
    )


class TestSchedulerDeadlines:
    def test_generous_deadline_is_met(self):
        query = _query(0, 0.0, [_phase(1.0)], deadline=5.0)
        outcome = ContentionScheduler().run([query])
        assert query.outcome == OUTCOME_FINISHED
        assert query.cancelled_at is None
        assert not outcome.deadline_exceeded
        assert query.finish == pytest.approx(1.0)

    def test_tight_deadline_cancels_mid_phase(self):
        query = _query(0, 0.0, [_phase(1.0)], deadline=0.5)
        outcome = ContentionScheduler().run([query])
        assert query.outcome == OUTCOME_DEADLINE
        assert query.cancelled_at == pytest.approx(0.5)
        assert query.finish == pytest.approx(0.5)
        assert [q.request.request_id for q in outcome.deadline_exceeded] == [0]
        assert not outcome.finished
        assert outcome.accounted() == 1

    def test_cancellation_frees_bandwidth_for_survivor(self):
        # Both saturate the same resource (rate 1/2 each).  q0's
        # deadline fires at 0.5 with 0.25 of its work done; q1 then
        # runs alone: 0.25 done at 0.5, remaining 0.75 at full rate ->
        # finishes at 1.25 instead of 2.0.
        doomed = _query(0, 0.0, [_phase(1.0)], deadline=0.5)
        survivor = _query(1, 0.0, [_phase(1.0)])
        ContentionScheduler().run([doomed, survivor])
        assert doomed.cancelled_at == pytest.approx(0.5)
        assert survivor.outcome == OUTCOME_FINISHED
        assert survivor.finish == pytest.approx(1.25)

    def test_deadline_relative_to_arrival(self):
        query = _query(0, 2.0, [_phase(1.0)], deadline=0.25)
        ContentionScheduler().run([query])
        assert query.cancelled_at == pytest.approx(2.25)

    def test_simultaneous_deadlines_cancel_both(self):
        queries = [
            _query(i, 0.0, [_phase(1.0)], deadline=1.5) for i in range(2)
        ]
        outcome = ContentionScheduler().run(queries)
        # sharing at rate 1/2 both would finish at 2.0 > 1.5.
        assert len(outcome.deadline_exceeded) == 2
        for query in queries:
            assert query.cancelled_at == pytest.approx(1.5)

    def test_waiting_query_cancelled_in_queue(self):
        policy = ServicePolicy(max_active=1, queue_depth=4)
        running = _query(0, 0.0, [_phase(1.0)])
        queued = _query(1, 0.0, [_phase(1.0)], deadline=0.5)
        outcome = ContentionScheduler().run(
            [running, queued], policy=policy
        )
        assert queued.outcome == OUTCOME_DEADLINE
        assert queued.cancelled_at == pytest.approx(0.5)
        # the running query was never slowed down: max_active=1 means
        # it owned the machine throughout.
        assert running.finish == pytest.approx(1.0)
        assert outcome.accounted() == 2

    def test_deadline_cancels_pending_retry(self):
        # the fault hook asks for a retry at t=2.0 but the deadline
        # fires at t=1.0 while the resubmission is still pending.
        query = _query(0, 0.0, [_phase(1.0)], deadline=1.0)

        def fault(q, phase_index, attempt, now):
            if attempt == 0:
                return PhaseFault(retry_delay=2.0)
            return None

        outcome = ContentionScheduler().run([query], fault=fault)
        assert query.outcome == OUTCOME_DEADLINE
        assert query.cancelled_at == pytest.approx(1.0)
        assert outcome.retries == 1
        assert not outcome.finished

    def test_multi_phase_cancellation_between_phases(self):
        query = _query(
            0,
            0.0,
            [
                _phase(1.0, {"a": 1.0}, label="build"),
                _phase(2.0, {"b": 2.0}, label="probe"),
            ],
            deadline=1.5,
        )
        ContentionScheduler().run([query])
        assert query.outcome == OUTCOME_DEADLINE
        assert query.cancelled_at == pytest.approx(1.5)


class TestSchedulerError:
    def test_undrained_queries_raise_typed_error(self, monkeypatch):
        # If the event loop stops before the workload drains (here: a
        # simulator whose run() halts at t=0.5 mid-flight), the
        # scheduler must name the stuck requests instead of silently
        # returning a partial outcome.
        import repro.serve.scheduler as scheduler_module
        from repro.sim.engine import Simulator

        class HaltingSimulator(Simulator):
            def run(self):
                halted = []
                self.schedule_at(0.5, halted.append)
                while not halted and self.step():
                    pass
                return self.now

        monkeypatch.setattr(
            scheduler_module, "Simulator", HaltingSimulator
        )
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(1, 0.0, [_phase(1.0)]),
        ]
        with pytest.raises(SchedulerError) as excinfo:
            ContentionScheduler().run(queries)
        error = excinfo.value
        assert isinstance(error, RuntimeError)
        assert error.clock == pytest.approx(0.5)
        assert [entry[0] for entry in error.stuck] == [0, 1]
        for _request_id, phase_index, remaining in error.stuck:
            assert phase_index == 0
            assert 0.0 < remaining <= 1.0
        assert "unfinished" in str(error)
        assert "#0" in str(error)


class TestServiceDeadlines:
    def test_submit_rejects_non_positive_deadline(self):
        service = QueryService()
        with pytest.raises(ValueError):
            service.submit("alpha", "q6", 0.0, deadline=0.0)
        with pytest.raises(ValueError):
            service.submit("alpha", "q6", 0.0, deadline=-1.0)

    def test_default_deadline_comes_from_policy(self):
        service = QueryService(
            policy=ServicePolicy(default_deadline=4.0)
        )
        request = service.submit("alpha", "q6", 1.0)
        assert request.deadline == 4.0
        assert request.absolute_deadline == pytest.approx(5.0)
        explicit = service.submit("alpha", "q6", 1.0, deadline=9.0)
        assert explicit.deadline == 9.0

    def test_no_deadline_without_policy_default(self):
        service = QueryService()
        request = service.submit("alpha", "q6", 0.0)
        assert request.deadline is None
        assert request.absolute_deadline is None

    def test_deadline_exceeded_query_reported_with_manifest_fields(self):
        # a deadline far below the solo makespan guarantees the cancel.
        service = QueryService()
        solo_probe = QueryService()
        solo_probe.submit("alpha", "q6", 0.0)
        solo = solo_probe.serve().served[0].solo_seconds

        service.submit("alpha", "q6", 0.0, deadline=solo / 4)
        report = service.serve()
        assert not report.served
        assert len(report.deadline_exceeded) == 1
        query = report.deadline_exceeded[0]
        assert query.outcome == OUTCOME_DEADLINE
        serving = query.manifest["serving"]
        assert serving["outcome"] == "deadline_exceeded"
        assert serving["deadline"] == pytest.approx(solo / 4)
        assert serving["cancelled_at"] == pytest.approx(solo / 4)
        assert serving["retries"] == 0
        assert report.outcome_counts()["deadline_exceeded"] == 1
        assert report.conservation(1)

    def test_deadline_cancel_releases_admission_share(self):
        service = QueryService(
            policy=ServicePolicy(default_deadline=0.01)
        )
        for i in range(3):
            service.submit("alpha", "q6", 0.001 * i)
        report = service.serve()
        assert report.outcome_counts()["deadline_exceeded"] == 3
        # audit() raises AdmissionAuditError on any leaked share.
        service.admission.audit()

    def test_deadline_cancel_recorded_in_resilience_section(self):
        service = QueryService()
        service.submit("alpha", "q6", 0.0, deadline=0.01)
        report = service.serve()
        assert report.resilience is not None
        actions = [
            event["action"] for event in report.resilience["events"]
        ]
        assert "deadline_cancel" in actions
        assert report.resilience["counters"]["deadline_cancel"] == 1

    def test_met_deadlines_leave_fault_free_shape(self):
        service = QueryService()
        service.submit("alpha", "q6", 0.0, deadline=1e9)
        report = service.serve()
        assert len(report.served) == 1
        serving = report.served[0].manifest["serving"]
        assert serving["outcome"] == "finished"
        assert serving["deadline"] == 1e9
        assert serving["cancelled_at"] is None
