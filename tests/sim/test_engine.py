"""Discrete-event simulator."""

import math

import pytest

from repro.sim.engine import Simulator, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda s: fired.append("b"))
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_ties_resolve_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(1))
        sim.schedule(1.0, lambda s: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda s: times.append(s.now))
        sim.schedule(1.5, lambda s: times.append(s.now))
        end = sim.run()
        assert times == [0.5, 1.5]
        assert end == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda s: None)

    def test_nan_delay_rejected_and_named(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(s.now))
        with pytest.raises(SimulationError, match="delay=nan"):
            sim.schedule(math.nan, lambda s: fired.append(s.now))
        assert sim.pending == 1
        assert sim.run() == 1.0
        assert fired == [1.0]

    def test_nan_time_rejected_by_schedule_at(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(math.nan, lambda s: None)
        assert sim.pending == 0

    def test_infinite_delay_is_legal(self):
        sim = Simulator()
        fired = []
        sim.schedule(math.inf, lambda s: fired.append(s.now))
        sim.schedule(1.0, lambda s: fired.append(s.now))
        assert sim.run() == math.inf
        assert fired == [1.0, math.inf]

    def test_events_keep_their_fields(self):
        sim = Simulator()

        def callback(s):
            return None

        event = sim.schedule(2.5, callback)
        assert (event.time, event.seq, event.callback) == (2.5, 0, callback)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda s: fired.append(s.now))
        sim.run()
        assert fired == [3.0]


class TestCascades:
    def test_callbacks_can_schedule_followups(self):
        sim = Simulator()
        hops = []

        def hop(s):
            hops.append(s.now)
            if len(hops) < 5:
                s.schedule(1.0, hop)

        sim.schedule(0.0, hop)
        sim.run()
        assert hops == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_returns_final_time_when_empty(self):
        sim = Simulator()
        assert sim.run() == 0.0


class TestScheduleAtClockSlop:
    """Absolute-time scheduling has no slop: a time before the clock,
    by however little, is fatal."""

    def test_genuinely_past_time_still_fatal(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda s: None)

    def test_past_beyond_epsilon_fatal_inside_callback(self):
        sim = Simulator()
        errors = []

        def at_one(s):
            try:
                s.schedule_at(1.0 - 1e-6, lambda s2: None)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, at_one)
        sim.run()
        assert len(errors) == 1

    @pytest.mark.parametrize("now", [1.0, 1e6])
    def test_one_ulp_past_is_fatal(self, now):
        sim = Simulator()
        errors = []

        def late(s):
            try:
                s.schedule_at(math.nextafter(now, 0.0), lambda s2: None)
            except SimulationError as exc:
                errors.append(exc)
            s.schedule_at(now, lambda s2: None)  # ``now`` itself is fine

        sim.schedule(now, late)
        assert sim.run() == now
        assert len(errors) == 1


class TestCancellableEvents:
    """Events can be revoked before they fire (serving deadlines)."""

    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda s: fired.append("dead"))
        sim.schedule(2.0, lambda s: fired.append("live"))
        assert sim.cancel_event(event) is True
        sim.run()
        assert fired == ["live"]

    def test_cancelled_event_does_not_advance_the_clock(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda s: None)
        sim.schedule(1.0, lambda s: None)
        sim.cancel_event(event)
        assert sim.run() == 1.0

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda s: None)
        sim.run()
        assert sim.cancel_event(event) is False

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda s: None)
        assert sim.cancel_event(event) is True
        assert sim.cancel_event(event) is False

    def test_pending_excludes_cancelled_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        assert sim.pending == 2
        sim.cancel_event(event)
        assert sim.pending == 1

    def test_cancel_from_within_a_callback(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule(5.0, lambda s: fired.append("doomed"))
        sim.schedule(1.0, lambda s: s.cancel_event(doomed))
        sim.run()
        assert fired == []
        assert sim.now == 1.0

    def test_cancelled_head_does_not_mask_later_event(self):
        # The cancelled head is skipped without moving the clock to it;
        # the live event behind it fires at its own time.
        sim = Simulator()
        fired = []
        dead = sim.schedule(1.0, lambda s: fired.append("dead"))
        sim.schedule(10.0, lambda s: fired.append(("late", s.now)))
        sim.cancel_event(dead)
        assert sim.pending == 1
        assert sim.run() == 10.0
        assert fired == [("late", 10.0)]
        assert sim.pending == 0

    def test_step_skips_cancelled_events(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule(1.0, lambda s: fired.append("dead"))
        sim.schedule(2.0, lambda s: fired.append("live"))
        sim.cancel_event(dead)
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.step() is False
