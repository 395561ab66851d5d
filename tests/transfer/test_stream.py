"""DES pipeline simulation vs. the closed-form makespan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.overlap import pipeline_makespan
from repro.transfer.stream import simulate_pipeline, stream_chunks


class TestSimulatePipeline:
    def test_single_stage_is_serial(self):
        run = simulate_pipeline([100.0], total_bytes=1000, chunks=4)
        assert run.makespan == pytest.approx(10.0)

    def test_two_stages_overlap(self):
        # Stage times: 10s and 20s total over 4 chunks -> 20 + 10/4.
        run = simulate_pipeline([100.0, 50.0], total_bytes=1000, chunks=4)
        assert run.makespan == pytest.approx(22.5)

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
            simulated = simulate_pipeline(rates, total, chunks).makespan
            # The closed form approximates fill/drain with one chunk of
            # every non-dominant stage; the DES is exact. They agree to
            # within one chunk of the fastest stage.
            slack = min(stage_times) / chunks
            assert simulated == pytest.approx(closed, abs=2 * slack)

    def test_per_chunk_overhead_charged(self):
        plain = simulate_pipeline([100.0], 1000, 4).makespan
        priced = simulate_pipeline(
            [100.0], 1000, 4, per_chunk_overhead=1.0
        ).makespan
        assert priced == pytest.approx(plain + 4.0)

    def test_all_chunks_complete_every_stage(self):
        run = simulate_pipeline([10.0, 20.0, 30.0], 999, 7)
        for stage in run.stages:
            assert stage.chunks_done == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_pipeline([], 10, 2)
        with pytest.raises(ValueError):
            simulate_pipeline([0.0], 10, 2)
        with pytest.raises(ValueError):
            simulate_pipeline([1.0], 10, 2, stage_names=["a", "b"])

    @given(
        rates=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=4),
        chunks=st.integers(1, 64),
        total=st.integers(1, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_des_bounded_by_serial_and_bottleneck(self, rates, chunks, total):
        run = simulate_pipeline(rates, total, chunks)
        stage_times = [total / r for r in rates]
        assert run.makespan >= max(stage_times) - 1e-9
        assert run.makespan <= sum(stage_times) + 1e-6


class TestStreamChunks:
    def test_delivers_everything_in_order(self):
        data = np.arange(1000)
        seen = []
        chunks = stream_chunks(data, 128, seen.append)
        assert chunks == 8
        assert np.array_equal(np.concatenate(seen), data)

    def test_consumer_sees_views(self):
        data = np.arange(10)
        views = []
        stream_chunks(data, 4, views.append)
        assert views[0].base is data

    def test_empty_input(self):
        assert stream_chunks(np.array([]), 4, lambda _: None) == 0

    def test_streaming_join_probe(self, ibm, wl_a):
        """Chunked probing equals whole-array probing."""
        from repro.core.hashtable import create_hash_table

        table = create_hash_table(
            "perfect", wl_a.r.executed_tuples, np.int64, np.int64
        )
        table.insert_batch(wl_a.r.key, wl_a.r.payload)
        matches = 0

        def probe(chunk):
            nonlocal matches
            found, _ = table.lookup_batch(chunk)
            matches += int(found.sum())

        stream_chunks(wl_a.s.key, 10_000, probe)
        assert matches == wl_a.s.executed_tuples
