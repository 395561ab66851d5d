"""Property tests for the plan executor and the Plan sequence validator.

Invariants:

* a plan's makespan is the running sum of its phase seconds in declared
  order, and its outcomes come back in that order;
* adding chunks to a chunked phase never makes it slower (with zero
  per-chunk overhead), and the chunked phase is never faster than the
  un-overlapped base stage;
* the validator rejects empty plans and duplicate names;
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


def _fixed(name, seconds):
    return fixed_phase(name, PhaseCost(seconds, "(none)", {}))


def _check_sequence(plan):
    """The sequence invariants: outcomes come back in declared order,
    the makespan is the left-to-right running sum of their seconds, and
    ``bound`` stays at or under it."""
    executor = _executor()
    result = executor.execute(plan)
    assert list(result.outcomes) == [p.name for p in plan.phases]
    total = 0.0  # a left fold: sum() compensates on Python >= 3.12
    for outcome in result.outcomes.values():
        total += outcome.seconds
    assert result.makespan == total
    assert executor.bound(plan) <= result.makespan
    return result


class TestMakespanBounds:
    @given(
        seconds=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_max_and_sum(self, seconds):
        plan = Plan([_fixed(f"p{i}", s) for i, s in enumerate(seconds)])
        result = _check_sequence(plan)
        assert [o.seconds for o in result.outcomes.values()] == seconds
        assert max(seconds) <= result.makespan

    def test_linear_chain_equals_sum(self):
        plan = Plan([_fixed("a", 1.5), _fixed("b", 2.5), _fixed("c", 0.5)])
        result = _executor().execute(plan)
        assert result.makespan == 1.5 + 2.5 + 0.5


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
    def test_rejects_duplicate_names(self):
        with pytest.raises(PlanError, match="[Dd]uplicate"):
            Plan([_fixed("a", 1.0), _fixed("a", 2.0)])

    def test_rejects_empty_plan(self):
        with pytest.raises(PlanError):
            Plan([])


class TestBound:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_makespan(self, data):
        """Sequences mixing FIXED and PRICED phases, chunked or not."""
        phases = []
        for i in range(data.draw(st.integers(1, 6), label="phases")):
            if data.draw(st.booleans(), label=f"fixed[{i}]"):
                seconds = data.draw(
                    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                    label=f"seconds[{i}]",
                )
                phases.append(_fixed(f"p{i}", seconds))
                continue
            profile = AccessProfile(
                streams=[
                    seq_stream(
                        "gpu0",
                        "cpu0-mem",
                        data.draw(st.integers(1, 1 << 32), label=f"bytes[{i}]"),
                        "read",
                    )
                ],
                compute_tuples=1e6,
                label="probe",
                processor="gpu0",
            )
            chunks = data.draw(st.none() | st.integers(1, 64), label=f"chunks[{i}]")
            phases.append(
                priced_phase(
                    f"p{i}",
                    profile,
                    chunked=None if chunks is None else Chunked(chunks=chunks),
                )
            )
        _check_sequence(Plan(phases))

    def test_linear_chain_is_exact(self):
        plan = Plan([_fixed("a", 0.1), _fixed("b", 0.2), _fixed("c", 0.3)])
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

    def test_rejects_negative_or_nan_fixed_seconds(self):
        """A FIXED phase with NaN or negative seconds is refused by both
        ``execute`` and ``bound``, naming the phase; ``+inf`` passes."""
        executor = _executor()
        for seconds in (float("nan"), -1.0):
            plan = Plan([_fixed("ok", 1.0), _fixed("bad", seconds)])
            with pytest.raises(PlanError, match="'bad'") as executed:
                executor.execute(plan)
            with pytest.raises(PlanError, match="'bad'") as bounded:
                executor.bound(plan)
            assert str(bounded.value) == str(executed.value)
        endless = Plan([_fixed("ok", 1.0), _fixed("endless", float("inf"))])
        assert executor.bound(endless) == math.inf
        assert executor.execute(endless).makespan == math.inf
