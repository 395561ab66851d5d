"""The closed-form chunked-pipeline makespan against a chunk-by-chunk replay.

The executor prices every ``chunked=`` phase with
:func:`repro.plan.overlap.pipeline_makespan`.  :func:`replay_makespan`
is its oracle: it pushes each chunk through each stage in order, so it
charges the fill and drain the closed form approximates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.overlap import pipeline_makespan


def chunk_sizes(total_bytes, chunks):
    """Split ``total_bytes`` into ``chunks`` near-equal chunk sizes.

    >>> chunk_sizes(10, 3)
    [4, 3, 3]
    """
    if chunks <= 0:
        raise ValueError(f"need at least one chunk, got {chunks}")
    if total_bytes < 0:
        raise ValueError(f"byte count must be non-negative: {total_bytes}")
    base, remainder = divmod(total_bytes, chunks)
    return [base + (1 if i < remainder else 0) for i in range(chunks)]


def replay_makespan(stage_rates, total_bytes, chunks, per_chunk_overhead=0.0):
    """Makespan of an N-stage pipeline, replayed chunk by chunk.

    Stage ``i`` is a FIFO server with bandwidth ``stage_rates[i]``
    (bytes/s).  Chunk ``c`` enters it once the chunk has left stage
    ``i-1`` and the stage has finished chunk ``c-1``::

        finish[i][c] = max(finish[i-1][c], finish[i][c-1]) + overhead + size/rate

    where the first stage pays ``per_chunk_overhead`` per chunk (the
    API-call cost the closed form charges) and the others pay nothing.
    """
    if not stage_rates:
        raise ValueError("pipeline needs at least one stage")
    if any(rate <= 0 for rate in stage_rates):
        raise ValueError(f"stage rates must be positive: {stage_rates}")
    sizes = chunk_sizes(total_bytes, chunks)
    finish = [0.0] * len(sizes)  # finish[c] of the previous stage
    for i, rate in enumerate(stage_rates):
        overhead = per_chunk_overhead if i == 0 else 0.0
        busy_until = 0.0
        for c, size in enumerate(sizes):
            busy_until = max(finish[c], busy_until) + overhead + size / rate
            finish[c] = busy_until
    return finish[-1]


class TestChunkSizes:
    def test_even_split(self):
        assert chunk_sizes(12, 3) == [4, 4, 4]

    def test_remainder_spread_over_leading_chunks(self):
        assert chunk_sizes(10, 3) == [4, 3, 3]

    def test_total_preserved(self):
        for total in (0, 1, 7, 1023):
            assert sum(chunk_sizes(total, 8)) == total

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)

    @given(total=st.integers(0, 10**9), chunks=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_chunks_partition_total(self, total, chunks):
        sizes = chunk_sizes(total, chunks)
        assert sum(sizes) == total
        assert len(sizes) == chunks
        assert max(sizes) - min(sizes) <= 1


class TestMakespan:
    def test_single_stage_is_its_time(self):
        assert pipeline_makespan([2.0], chunks=4) == pytest.approx(2.0)

    def test_two_stage_overlap(self):
        # Dominant stage 4s, secondary 2s, 4 chunks: 4 + 2/4 = 4.5.
        assert pipeline_makespan([2.0, 4.0], chunks=4) == pytest.approx(4.5)

    def test_more_chunks_reduce_fill_cost(self):
        few = pipeline_makespan([1.0, 4.0], chunks=2)
        many = pipeline_makespan([1.0, 4.0], chunks=32)
        assert many < few

    def test_per_chunk_overhead_grows_with_chunks(self):
        cheap = pipeline_makespan([4.0], chunks=2, per_chunk_overhead=0.1)
        costly = pipeline_makespan([4.0], chunks=16, per_chunk_overhead=0.1)
        assert costly > cheap

    def test_tied_stages_fill(self):
        # Two equal stages: one contributes fill time.
        assert pipeline_makespan([4.0, 4.0], chunks=4) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_makespan([], chunks=2)
        with pytest.raises(ValueError):
            pipeline_makespan([1.0], chunks=0)
        with pytest.raises(ValueError):
            pipeline_makespan([-1.0], chunks=2)


class TestReplayOracle:
    def test_single_stage_is_serial(self):
        assert replay_makespan([100.0], total_bytes=1000, chunks=4) == pytest.approx(10.0)

    def test_two_stages_overlap(self):
        # Stage times: 10s and 20s total over 4 chunks -> 20 + 10/4.
        assert replay_makespan([100.0, 50.0], total_bytes=1000, chunks=4) == pytest.approx(22.5)

    def test_matches_closed_form_makespan(self):
        total = 10_000
        for rates, chunks in [
            ([100.0, 50.0], 8),
            ([50.0, 100.0], 8),
            ([100.0, 100.0], 16),
            ([30.0, 90.0, 60.0], 10),
        ]:
            stage_times = [total / r for r in rates]
            closed = pipeline_makespan(stage_times, chunks)
            replayed = replay_makespan(rates, total, chunks)
            # The closed form approximates fill/drain with one chunk of
            # every non-dominant stage; the replay is exact. They agree
            # to within one chunk of the fastest stage.
            slack = min(stage_times) / chunks
            assert replayed == pytest.approx(closed, abs=2 * slack)

    def test_per_chunk_overhead_charged(self):
        plain = replay_makespan([100.0], 1000, 4)
        priced = replay_makespan([100.0], 1000, 4, per_chunk_overhead=1.0)
        assert priced == pytest.approx(plain + 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_makespan([], 10, 2)
        with pytest.raises(ValueError):
            replay_makespan([0.0], 10, 2)
        with pytest.raises(ValueError):
            replay_makespan([1.0], 10, 0)

    @given(
        rates=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=4),
        chunks=st.integers(1, 64),
        total=st.integers(1, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_replay_bounded_by_serial_and_bottleneck(self, rates, chunks, total):
        makespan = replay_makespan(rates, total, chunks)
        stage_times = [total / r for r in rates]
        assert makespan >= max(stage_times) - 1e-9
        assert makespan <= sum(stage_times) + 1e-6
