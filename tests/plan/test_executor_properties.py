"""Property tests for the plan executor and the Plan DAG validator.

Invariants:

* the dependency-aware makespan of any plan is bounded below by its
  longest single phase and above by the serial sum of all phases;
* adding chunks to a chunked phase never makes it slower (with zero
  per-chunk overhead), and the chunked phase is never faster than the
  un-overlapped base stage;
* the DAG validator rejects cycles, dangling dependencies, duplicate
  names, and self-dependencies;
* ``bound`` never exceeds the makespan, is exact where no overhead,
  overlap or contention applies, and rejects what ``execute`` rejects.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.access import AccessProfile, seq_stream
from repro.costmodel.model import CostModel, PhaseCost
from repro.hardware.topology import ibm_ac922
from repro.plan import (
    Chunked,
    MorselWorker,
    Plan,
    PlanError,
    PlanExecutor,
    WorkerLoad,
    fixed_phase,
    morsel_phase,
    pipeline_makespan,
    priced_phase,
)

import pytest


def _executor() -> PlanExecutor:
    return PlanExecutor(CostModel(ibm_ac922()))


def _fixed(name, seconds, deps=(), claims=()):
    return fixed_phase(
        name, PhaseCost(seconds, "(none)", {}), deps=deps, claims=claims
    )


class TestMakespanBounds:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_max_and_sum(self, data):
        n = data.draw(st.integers(1, 6), label="phases")
        seconds = [
            data.draw(
                st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                label=f"seconds[{i}]",
            )
            for i in range(n)
        ]
        phases = []
        for i in range(n):
            dep_idx = (
                data.draw(
                    st.sets(st.integers(0, i - 1)), label=f"deps[{i}]"
                )
                if i
                else set()
            )
            claims = tuple(
                data.draw(
                    st.sets(st.sampled_from(["a", "b"])), label=f"claims[{i}]"
                )
            )
            phases.append(
                _fixed(
                    f"p{i}",
                    seconds[i],
                    deps=tuple(f"p{d}" for d in sorted(dep_idx)),
                    claims=claims,
                )
            )
        result = _executor().execute(Plan(phases))
        lo, hi = max(seconds), sum(seconds)
        assert result.makespan >= lo - 1e-12 * max(1.0, lo)
        assert result.makespan <= hi + 1e-12 * max(1.0, hi)

    def test_independent_phases_overlap(self):
        """Two claim-disjoint phases run concurrently in the makespan."""
        plan = Plan([
            _fixed("a", 3.0, claims=("cpu0",)),
            _fixed("b", 2.0, claims=("gpu0",)),
        ])
        result = _executor().execute(plan)
        assert math.isclose(result.makespan, 3.0)
        assert math.isclose(result.total_seconds, 5.0)

    def test_exclusive_claims_serialize(self):
        """Phases claiming the same resource cannot overlap."""
        plan = Plan([
            _fixed("a", 3.0, claims=("gpu0",)),
            _fixed("b", 2.0, claims=("gpu0",)),
        ])
        result = _executor().execute(plan)
        assert math.isclose(result.makespan, 5.0)

    def test_linear_chain_equals_sum(self):
        plan = Plan([
            _fixed("a", 1.5),
            _fixed("b", 2.5, deps=("a",)),
            _fixed("c", 0.5, deps=("b",)),
        ])
        result = _executor().execute(plan)
        assert math.isclose(result.makespan, result.total_seconds)


class TestChunkedMonotonicity:
    def _chunked_seconds(self, chunks: int) -> float:
        model = CostModel(ibm_ac922())
        profile = AccessProfile(
            streams=[seq_stream("gpu0", "cpu0-mem", 1 << 30, "read")],
            compute_tuples=1e6,
            label="probe",
            processor="gpu0",
        )
        plan = Plan([
            priced_phase("probe", profile, chunked=Chunked(chunks=chunks))
        ])
        return PlanExecutor(model).execute(plan).seconds("probe")

    @given(
        chunks=st.integers(1, 256),
        more=st.integers(1, 256),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_chunks_never_slower(self, chunks, more):
        a = self._chunked_seconds(chunks)
        b = self._chunked_seconds(chunks + more)
        assert b <= a + 1e-12 * a

    @given(chunks=st.integers(1, 256))
    @settings(max_examples=30, deadline=None)
    def test_never_beats_unoverlapped_base(self, chunks):
        """Overlap hides the secondary stage, not the dominant one."""
        unchunked = self._chunked_seconds(10**9)  # 1/n -> 0
        assert self._chunked_seconds(chunks) >= unchunked - 1e-12 * unchunked

    @given(
        stages=st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
        chunks=st.integers(1, 512),
        more=st.integers(1, 512),
    )
    @settings(max_examples=60, deadline=None)
    def test_pipeline_makespan_monotone_in_chunks(self, stages, chunks, more):
        a = pipeline_makespan(stages, chunks)
        b = pipeline_makespan(stages, chunks + more)
        assert b <= a + 1e-12 * max(1.0, a)
        assert a >= max(stages)


class TestDagValidation:
    def test_rejects_cycle(self):
        with pytest.raises(PlanError, match="cycle"):
            Plan([
                _fixed("a", 1.0, deps=("b",)),
                _fixed("b", 1.0, deps=("a",)),
            ])

    def test_rejects_self_dependency(self):
        with pytest.raises(PlanError):
            Plan([_fixed("a", 1.0, deps=("a",))])

    def test_rejects_dangling_dependency(self):
        with pytest.raises(PlanError, match="unknown"):
            Plan([_fixed("a", 1.0, deps=("ghost",))])

    def test_rejects_duplicate_names(self):
        with pytest.raises(PlanError, match="[Dd]uplicate"):
            Plan([_fixed("a", 1.0), _fixed("a", 2.0)])

    def test_rejects_empty_plan(self):
        with pytest.raises(PlanError):
            Plan([])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_respects_deps(self, data):
        n = data.draw(st.integers(1, 7))
        phases = []
        for i in range(n):
            dep_idx = (
                data.draw(st.sets(st.integers(0, i - 1))) if i else set()
            )
            phases.append(
                _fixed(f"p{i}", 1.0, deps=tuple(f"p{d}" for d in sorted(dep_idx)))
            )
        order = [p.name for p in Plan(phases).topological_order()]
        position = {name: i for i, name in enumerate(order)}
        for phase in phases:
            for dep in phase.deps:
                assert position[dep] < position[phase.name]


class TestBound:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_makespan(self, data):
        n = data.draw(st.integers(1, 6), label="phases")
        phases = []
        for i in range(n):
            deps = data.draw(st.sets(st.integers(0, i - 1)), label="deps") if i else set()
            claims = data.draw(st.sets(st.sampled_from(["a", "b"])), label="claims")
            seconds = data.draw(
                st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                label="seconds",
            )
            phases.append(
                _fixed(
                    f"p{i}",
                    seconds,
                    deps=tuple(f"p{d}" for d in sorted(deps)),
                    claims=tuple(sorted(claims)),
                )
            )
        plan = Plan(phases)
        executor = _executor()
        assert executor.bound(plan) <= executor.execute(plan).makespan

    def test_linear_chain_is_exact(self):
        plan = Plan([
            _fixed("a", 0.1),
            _fixed("b", 0.2, deps=("a",)),
            _fixed("c", 0.3, deps=("b",)),
        ])
        executor = _executor()
        assert executor.bound(plan) == executor.execute(plan).makespan

    def _profile(self, fixed_overhead=0.0):
        return AccessProfile(
            streams=[seq_stream("gpu0", "cpu0-mem", 1 << 30, "read")],
            compute_tuples=1e6,
            label="probe",
            processor="gpu0",
            fixed_overhead=fixed_overhead,
        )

    def test_priced_bound_is_the_price_before_overheads(self):
        executor = _executor()
        bare = Plan([priced_phase("probe", self._profile())])
        assert executor.bound(bare) == executor.execute(bare).makespan
        for phase in (
            priced_phase("probe", self._profile(1e-3)),
            priced_phase("probe", self._profile(), chunked=Chunked(chunks=4)),
        ):
            plan = Plan([phase])
            assert executor.bound(plan) == executor.bound(bare)
            assert executor.bound(plan) < executor.execute(plan).makespan

    def test_rejects_what_execute_rejects(self):
        compute_only = AccessProfile(compute_tuples=1e6, label="orphan")
        load = WorkerLoad(
            profile=AccessProfile(compute_tuples=1e6, processor="gpu0"),
            units=1e6,
        )
        bad_batch = morsel_phase(
            "probe",
            {"gpu0": load},
            shared_units=1e6,
            morsel_tuples=64,
            morsel_workers={"gpu0": MorselWorker(1e-5, batch_morsels=-1)},
        )
        executor = _executor()
        for phase in (priced_phase("p", compute_only), bad_batch):
            plan = Plan([phase])
            with pytest.raises(ValueError) as executed:
                executor.execute(plan)
            with pytest.raises(ValueError) as bounded:
                executor.bound(plan)
            assert str(bounded.value) == str(executed.value)
