"""Contention scheduler: processor-sharing semantics on the DES.

Synthetic ServedQuery fixtures with hand-written phase costs pin the
scheduling arithmetic: a lone query finishes in exactly its solo time,
co-running queries on one saturated resource share it max-min fairly,
disjoint or under-utilized resources overlap for free, and arrivals at
accumulated float timestamps never trip the simulator clock.
"""

import pytest

from repro.costmodel.model import PhaseCost
from repro.serve.policy import OUTCOME_DEADLINE
from repro.serve.request import QueryRequest, ServedQuery
from repro.serve.scheduler import ContentionScheduler


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


def _query(request_id, arrival, phases, tenant="alpha", deadline=None):
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


class TestSoloSemantics:
    def test_lone_query_finishes_in_solo_time(self):
        query = _query(0, 0.0, [_phase(1.5)])
        outcome = ContentionScheduler().run([query])
        assert query.start == 0.0
        assert query.finish == pytest.approx(1.5)
        assert outcome.makespan == pytest.approx(1.5)

    def test_lone_query_with_fixed_overhead_not_sped_up(self):
        # Bottleneck busy time below the phase duration (fixed
        # overheads): the solved rate exceeds 1 but must be clamped.
        query = _query(0, 0.0, [_phase(2.0, {"mem:cpu0-mem": 0.5})])
        ContentionScheduler().run([query])
        assert query.finish == pytest.approx(2.0)

    def test_multi_phase_query_runs_phases_sequentially(self):
        query = _query(
            0,
            1.0,
            [
                _phase(1.0, {"a": 1.0}, label="build"),
                _phase(2.0, {"b": 2.0}, label="probe"),
            ],
        )
        ContentionScheduler().run([query])
        assert query.finish == pytest.approx(4.0)

    def test_zero_second_phases_are_skipped(self):
        query = _query(
            0,
            0.0,
            [_phase(0.0, {}), _phase(1.0), _phase(0.0, {})],
        )
        ContentionScheduler().run([query])
        assert query.finish == pytest.approx(1.0)

    def test_all_zero_query_finishes_at_arrival(self):
        query = _query(0, 3.0, [_phase(0.0, {})])
        outcome = ContentionScheduler().run([query])
        assert query.finish == pytest.approx(3.0)
        assert outcome.makespan == pytest.approx(3.0)


class TestContention:
    def test_two_identical_queries_share_the_bottleneck(self):
        # Each query saturates the same resource solo; together they
        # process at half rate: both finish at 2x solo.
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(1, 0.0, [_phase(1.0)]),
        ]
        ContentionScheduler().run(queries)
        assert queries[0].finish == pytest.approx(2.0)
        assert queries[1].finish == pytest.approx(2.0)

    def test_disjoint_resources_do_not_contend(self):
        queries = [
            _query(0, 0.0, [_phase(1.0, {"a": 1.0})]),
            _query(1, 0.0, [_phase(1.0, {"b": 1.0})]),
        ]
        ContentionScheduler().run(queries)
        assert queries[0].finish == pytest.approx(1.0)
        assert queries[1].finish == pytest.approx(1.0)

    def test_underutilized_resource_overlaps_for_free(self):
        # Each query needs only 40% of the shared resource; combined
        # load is 0.8 < 1, so neither is slowed down.
        queries = [
            _query(0, 0.0, [_phase(1.0, {"r": 0.4})]),
            _query(1, 0.0, [_phase(1.0, {"r": 0.4})]),
        ]
        ContentionScheduler().run(queries)
        assert queries[0].finish == pytest.approx(1.0)
        assert queries[1].finish == pytest.approx(1.0)

    def test_staggered_arrival_processor_sharing(self):
        # q0 runs alone until t=0.5 (half done), then both share at
        # rate 1/2: q0's remaining 0.5 takes 1.0s -> finishes at 1.5;
        # q1 has 0.5 done by then and runs alone -> finishes at 2.0.
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(1, 0.5, [_phase(1.0)]),
        ]
        ContentionScheduler().run(queries)
        assert queries[0].finish == pytest.approx(1.5)
        assert queries[1].finish == pytest.approx(2.0)

    def test_three_way_contention_is_max_min_fair(self):
        queries = [
            _query(i, 0.0, [_phase(1.0)]) for i in range(3)
        ]
        outcome = ContentionScheduler().run(queries)
        for query in queries:
            assert query.finish == pytest.approx(3.0)
        assert outcome.peak_concurrency == 3

    def test_makespan_and_ordering_are_deterministic(self):
        def build():
            return [
                _query(0, 0.0, [_phase(0.7)]),
                _query(1, 0.1, [_phase(0.3, {"a": 0.3})]),
                _query(2, 0.2, [_phase(0.5)]),
            ]

        first = ContentionScheduler().run(build())
        second = ContentionScheduler().run(build())
        assert first.makespan == second.makespan
        assert first.resolves == second.resolves


class TestSchedulerHooks:
    def test_admit_hook_drops_queries(self):
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(1, 0.0, [_phase(1.0)]),
        ]
        outcome = ContentionScheduler().run(
            queries, admit=lambda q, now: q.request.request_id == 0
        )
        assert [q.request.request_id for q in outcome.finished] == [0]
        assert [q.request.request_id for q in outcome.dropped] == [1]
        assert queries[0].finish == pytest.approx(1.0)

    def test_on_finish_fires_once_per_query_at_finish_time(self):
        finished = []
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(1, 0.0, [_phase(1.0)]),
        ]
        ContentionScheduler().run(
            queries,
            on_finish=lambda q, now: finished.append(
                (q.request.request_id, now)
            ),
        )
        assert sorted(finished) == [(0, pytest.approx(2.0)), (1, pytest.approx(2.0))]


class TestClockRobustness:
    def test_accumulated_float_arrivals_do_not_raise(self):
        # Absolute arrival timestamps built by cumulative float sums —
        # the exact pattern that used to trip Simulator.schedule_at
        # when a completion left the clock ULPs past an arrival.
        gap = 0.1
        arrival = 0.0
        queries = []
        for i in range(50):
            queries.append(_query(i, arrival, [_phase(0.1)]))
            arrival += gap
        outcome = ContentionScheduler().run(queries)
        assert len(outcome.finished) == 50
        assert outcome.makespan >= 49 * gap

    def test_heavy_churn_converges(self):
        # Many short queries over few resources: lots of re-solves and
        # revoked completion events.
        queries = [
            _query(
                i,
                0.01 * i,
                [
                    _phase(0.05, {"a": 0.05 if i % 2 else 0.02}),
                    _phase(0.03, {"b": 0.03}),
                ],
            )
            for i in range(40)
        ]
        outcome = ContentionScheduler().run(queries)
        assert len(outcome.finished) == 40
        for query in outcome.finished:
            assert query.finish >= query.request.arrival
            # never faster than the contention-free latency
            assert (
                query.finish - query.start
                >= query.solo_seconds - 1e-9
            )


class TestTies:
    """Only the soonest completion is scheduled; every tie must still
    resolve the way the one-event-per-active-query heap resolved it."""

    def test_equal_etas_finish_in_active_order(self):
        # Disjoint resources, both due at exactly t=2.0; #5 became
        # active first, so it lands first whatever the request ids say.
        first = _query(5, 0.0, [_phase(2.0, {"a": 2.0})])
        second = _query(2, 1.0, [_phase(1.0, {"b": 1.0})])
        finished = []
        outcome = ContentionScheduler().run(
            [second, first],
            on_finish=lambda q, now: finished.append(
                (q.request.request_id, now)
            ),
        )
        assert finished == [(5, 2.0), (2, 2.0)]
        assert [q.request.request_id for q in outcome.finished] == [5, 2]
        assert outcome.makespan == 2.0

    def test_arrival_at_a_completion_timestamp_fires_first(self):
        # The arrival was scheduled before the run (lower seq) than the
        # completion due at the same t=1.0: it is admitted while #0 is
        # still active, and #0 still lands at exactly 1.0.
        log = []
        running = _query(0, 0.0, [_phase(1.0)])
        arriving = _query(1, 1.0, [_phase(1.0)])
        outcome = ContentionScheduler().run(
            [running, arriving],
            admit=lambda q, now: log.append(("admit", q.request.request_id, now))
            or True,
            on_finish=lambda q, now: log.append(
                ("finish", q.request.request_id, now)
            ),
        )
        assert log == [
            ("admit", 0, 0.0),
            ("admit", 1, 1.0),
            ("finish", 0, 1.0),
            ("finish", 1, 2.0),
        ]
        assert outcome.peak_concurrency == 2
        assert outcome.resolves == 4
        # the superseded completion of #1 at its shared-rate eta (3.0)
        # used to be the last event fired.
        assert outcome.makespan == 2.0

    def test_deadline_equal_to_own_finish_time_still_wins(self):
        # The deadline event is scheduled at admission, before the
        # first completion, so at the shared timestamp it fires first.
        for phases in ([_phase(1.0)], [_phase(0.5), _phase(0.5)]):
            query = _query(0, 0.0, phases, deadline=1.0)
            outcome = ContentionScheduler().run([query])
            assert query.outcome == OUTCOME_DEADLINE
            assert query.cancelled_at == 1.0
            assert outcome.makespan == 1.0
            assert not outcome.finished


class TestInputValidation:
    """Inputs the scheduler used to accept and silently mis-serve."""

    def test_duplicate_request_id_is_rejected(self):
        # `active` is keyed by request id: the second query used to
        # overwrite the first, which then ended in no bucket at all.
        queries = [
            _query(0, 0.0, [_phase(1.0)]),
            _query(0, 0.5, [_phase(1.0)]),
        ]
        with pytest.raises(ValueError, match="#0"):
            ContentionScheduler().run(queries)

    @pytest.mark.parametrize(
        "seconds", [float("nan"), -1.0, float("inf")], ids=str
    )
    def test_unusable_phase_seconds_are_rejected(self, seconds):
        # NaN and negative seconds were skipped as a zero-second phase
        # (the query "finished" at its arrival); inf finished at inf.
        admitted = []
        queries = [
            _query(3, 0.0, [_phase(1.0)]),
            _query(7, 0.5, [_phase(1.0), _phase(seconds, {"a": 1.0})]),
        ]
        with pytest.raises(ValueError, match=r"#7 phase 1.*" + str(seconds)):
            ContentionScheduler().run(
                queries, admit=lambda q, now: admitted.append(q) or True
            )
        assert not admitted  # rejected before the first event fired

    @pytest.mark.parametrize(
        "arrival", [float("nan"), float("inf"), -1e-12], ids=str
    )
    def test_unusable_arrival_is_rejected(self, arrival):
        # NaN started the query at nan, inf finished it at nan (and made
        # the makespan NaN), and -1e-12 was clamped to t=0.
        admitted = []
        queries = [
            _query(3, 0.0, [_phase(1.0)]),
            _query(7, arrival, [_phase(1.0)]),
        ]
        with pytest.raises(ValueError, match=r"#7: arrival.*" + str(arrival)):
            ContentionScheduler().run(
                queries, admit=lambda q, now: admitted.append(q) or True
            )
        assert not admitted

    @pytest.mark.parametrize(
        "deadline", [float("nan"), float("inf"), 0.0, -1.0], ids=str
    )
    def test_unusable_deadline_is_rejected(self, deadline):
        # A NaN deadline cancelled the query at t=nan.
        admitted = []
        queries = [
            _query(3, 0.0, [_phase(1.0)]),
            _query(7, 0.5, [_phase(1.0)], deadline=deadline),
        ]
        with pytest.raises(ValueError, match=r"#7: deadline.*" + str(deadline)):
            ContentionScheduler().run(
                queries, admit=lambda q, now: admitted.append(q) or True
            )
        assert not admitted
