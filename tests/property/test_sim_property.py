"""Property-based tests of the simulation substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler.morsel import MorselDispatcher
from repro.plan.overlap import pipeline_makespan
from repro.sim.engine import Simulator
from repro.sim.resources import solve_concurrent_rates


class TestDispatcherProperties:
    @given(
        total=st.integers(0, 10_000),
        morsel=st.integers(1, 500),
        batch=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_coverage_no_overlap(self, total, morsel, batch):
        dispatcher = MorselDispatcher(total, morsel)
        cursor = 0
        while (grant := dispatcher.next_batch(batch)) is not None:
            assert grant.start == cursor
            assert grant.end > grant.start
            cursor = grant.end
        assert cursor == total

    @given(total=st.integers(1, 10_000), morsel=st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_all_but_last_morsel_full_size(self, total, morsel):
        dispatcher = MorselDispatcher(total, morsel)
        sizes = []
        while (grant := dispatcher.next_batch()) is not None:
            sizes.append(grant.tuples)
        assert all(s == morsel for s in sizes[:-1])
        assert 0 < sizes[-1] <= morsel


class TestSolverProperties:
    @given(
        demands=st.dictionaries(
            keys=st.sampled_from(["w1", "w2", "w3"]),
            values=st.dictionaries(
                keys=st.sampled_from(["a", "b", "c"]),
                values=st.floats(0.01, 10.0),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_always_feasible(self, demands):
        rates = solve_concurrent_rates(demands)
        loads = {}
        for worker, vector in demands.items():
            for resource, occupancy in vector.items():
                loads[resource] = loads.get(resource, 0.0) + (
                    occupancy * rates[worker]
                )
        for load in loads.values():
            assert load <= 1.0 + 1e-6

    @given(
        demands=st.dictionaries(
            keys=st.sampled_from(["w1", "w2"]),
            values=st.dictionaries(
                keys=st.sampled_from(["a", "b"]),
                values=st.floats(0.01, 10.0),
                min_size=1,
            ),
            min_size=1,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rates_never_exceed_solo(self, demands):
        from repro.sim.resources import solo_rate

        rates = solve_concurrent_rates(demands)
        for worker, vector in demands.items():
            assert rates[worker] <= solo_rate(vector) + 1e-9


class TestPipelineProperties:
    @given(
        stages=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
        chunks=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, stages, chunks):
        makespan = pipeline_makespan(stages, chunks)
        # Never faster than the slowest stage, never slower than serial.
        assert makespan >= max(stages) - 1e-12
        assert makespan <= sum(stages) + 1e-9

    @given(stages=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_more_chunks_never_slower(self, stages):
        few = pipeline_makespan(stages, 2)
        many = pipeline_makespan(stages, 64)
        assert many <= few + 1e-9


class TestEngineProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_events_observed_in_sorted_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda s: observed.append(s.now))
        end = sim.run()
        assert observed == sorted(observed)
        assert end == max(delays)
