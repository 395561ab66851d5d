"""Executor recovery: retries, re-dispatch, abort protocol, fallback.

The regression this file guards: killing a worker mid-ordered-build used
to strand its peers forever inside the sequencer (they waited for a
range that would never be applied).  Every test runs the pool in a
helper thread with a hard join timeout so a reintroduced deadlock fails
the test instead of hanging the suite.
"""

import sys
import threading

import numpy as np
import pytest

from repro.exec import (
    AbortedError,
    MorselExecutor,
    MorselFailedError,
    execute_build,
)
from repro.exec.pool import _Sequencer
from repro.faults import (
    CrashWorker,
    FaultPlan,
    ResilienceLog,
    RetryPolicy,
    TransientError,
)

#: generous wall-clock bound — the pool normally drains in milliseconds.
DRAIN_TIMEOUT = 20.0


def run_with_timeout(fn, timeout=DRAIN_TIMEOUT):
    """Run ``fn`` on a helper thread; fail the test if it doesn't drain."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: B036 - re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "executor failed to drain (deadlock?)"
    if "error" in box:
        raise box["error"]
    return box["value"]


def identity_starts(total, executor, ordered=False):
    outcomes = executor.run(total, lambda work, worker: work.start, ordered=ordered)
    return [o.work.start for o in outcomes], outcomes


class TestRetry:
    def test_transient_fault_retries_in_place(self):
        log = ResilienceLog()
        executor = MorselExecutor(workers=2, morsel_tuples=64, resilience=log)
        plan = FaultPlan(seed=1, rules=[TransientError(probability=0.4, times=3)])
        with plan.install():
            starts, _ = run_with_timeout(lambda: identity_starts(64 * 20, executor))
        assert starts == sorted(starts)
        assert plan.injected_counts().get("transient", 0) == 3
        assert log.count("retry") == 3

    def test_exhausted_budget_raises_typed_error_naming_the_range(self):
        executor = MorselExecutor(
            workers=2,
            morsel_tuples=64,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        plan = FaultPlan(
            seed=1, rules=[TransientError(probability=1.0, attempts=None, times=None)]
        )
        with plan.install():
            with pytest.raises(MorselFailedError) as info:
                run_with_timeout(lambda: identity_starts(64 * 20, executor))
        err = info.value
        assert err.attempts == 2
        assert f"[{err.work.start}, {err.work.end})" in str(err)
        assert err.worker.startswith("exec-w")
        # No stranded threads: only this test thread (+ pytest internals)
        # may hold executor state; all pool workers exited.
        assert not [
            t for t in threading.enumerate() if t.name.startswith("exec-w")
        ]

    def test_backoff_delays_are_bounded(self):
        policy = RetryPolicy(base_delay=0.01, factor=2.0, max_delay=0.03)
        assert policy.delay(1) == 0.01
        assert policy.delay(2) == 0.02
        assert policy.delay(3) == 0.03  # capped
        assert policy.delay(10) == 0.03
        assert RetryPolicy(base_delay=0.0).delay(5) == 0.0


class TestRedispatch:
    def test_crashed_workers_range_runs_on_a_survivor(self):
        log = ResilienceLog()
        executor = MorselExecutor(workers=4, morsel_tuples=64, resilience=log)
        plan = FaultPlan(seed=2, rules=[CrashWorker(worker="exec-w0", ordinal=1)])
        with plan.install():
            starts, outcomes = run_with_timeout(
                lambda: identity_starts(64 * 40, executor)
            )
        assert starts == list(range(0, 64 * 40, 64))
        assert log.count("redispatch") == 1
        assert plan.injected_counts() == {"crash": 1}
        # The re-dispatched range ran on some *other* worker.
        (event,) = [e for e in log.events if e.action == "redispatch"]
        runner = next(
            o.worker for o in outcomes if o.work.start == event.detail["start"]
        )
        assert runner != "exec-w0"

    def test_all_workers_dead_falls_back_to_serial_replay(self):
        log = ResilienceLog()
        # A generous retry budget: a range can be crashed up to three
        # times (once per worker picking it up) before the pool is empty.
        executor = MorselExecutor(
            workers=3,
            morsel_tuples=64,
            resilience=log,
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
        )
        plan = FaultPlan(
            seed=3, rules=[CrashWorker(worker=None, ordinal=0, times=3)]
        )
        with plan.install():
            starts, outcomes = run_with_timeout(
                lambda: identity_starts(64 * 20, executor)
            )
        assert starts == list(range(0, 64 * 20, 64))
        assert log.count("serial_fallback") == 1
        assert {o.worker for o in outcomes} == {"exec-fallback"}

    def test_serial_fallback_can_be_disabled(self):
        executor = MorselExecutor(
            workers=2, morsel_tuples=64, serial_fallback=False
        )
        plan = FaultPlan(
            seed=3, rules=[CrashWorker(worker=None, ordinal=0, times=2)]
        )
        with plan.install():
            with pytest.raises(RuntimeError, match="serial_fallback is disabled"):
                run_with_timeout(lambda: identity_starts(64 * 20, executor))


class TestOrderedAbort:
    """The satellite regression: crash mid-ordered-build, nobody strands."""

    def test_kill_worker0_mid_ordered_build_still_builds_correctly(self):
        from repro.core.hashtable import create_hash_table

        n = 64 * 40
        keys = np.arange(n, dtype=np.int64)
        payloads = keys * 3
        log = ResilienceLog()
        executor = MorselExecutor(workers=4, morsel_tuples=64, resilience=log)
        # Chaining builds apply morsels through the sequencer (ordered),
        # so a crashed worker forces the degrade-to-serial protocol.
        table = create_hash_table("chaining", n, keys.dtype, payloads.dtype)
        plan = FaultPlan(seed=4, rules=[CrashWorker(worker="exec-w0", ordinal=2)])
        with plan.install():
            run_with_timeout(lambda: execute_build(table, keys, payloads, executor))
        # Degraded to serial replay, but the table is complete and correct.
        assert log.count("serial_fallback") == 1
        found, values = table.lookup_batch(keys)
        assert found.all()
        assert np.array_equal(values, payloads)
        assert not [
            t for t in threading.enumerate() if t.name.startswith("exec-w")
        ]

    def test_ordered_crash_applies_no_range_twice_or_out_of_order(self):
        applied = []
        apply_lock = threading.Lock()

        def task(work, worker):
            with apply_lock:
                applied.append(work.start)

        log = ResilienceLog()
        executor = MorselExecutor(workers=4, morsel_tuples=64, resilience=log)
        plan = FaultPlan(
            seed=5, rules=[CrashWorker(worker=None, ordinal=3, times=2)]
        )
        with plan.install():
            run_with_timeout(
                lambda: executor.run(64 * 30, task, ordered=True)
            )
        assert applied == sorted(applied)
        assert applied == list(range(0, 64 * 30, 64))

    def test_sequencer_abort_wakes_every_waiter(self):
        seq = _Sequencer()
        results = []

        def wait_for(start):
            try:
                seq.run_in_order(start, start + 1, lambda: None)
            except AbortedError:
                results.append(start)

        waiters = [
            threading.Thread(target=wait_for, args=(s,), daemon=True)
            for s in (5, 9, 13)  # none of these is next (next == 0)
        ]
        for t in waiters:
            t.start()
        seq.abort()
        for t in waiters:
            t.join(DRAIN_TIMEOUT)
        assert not any(t.is_alive() for t in waiters)
        assert sorted(results) == [5, 9, 13]

    def test_sequencer_never_advances_past_a_failed_range(self):
        seq = _Sequencer()
        seq.run_in_order(0, 10, lambda: None)
        with pytest.raises(ValueError):
            seq.run_in_order(10, 20, self._boom)
        assert seq.applied_through == 10
        with pytest.raises(AbortedError):
            seq.run_in_order(20, 30, lambda: None)

    @staticmethod
    def _boom():
        raise ValueError("mid-apply failure")


class TestGenuineErrors:
    def test_non_injected_exception_propagates_with_failed_range(self):
        executor = MorselExecutor(workers=4, morsel_tuples=64)

        def boom(work, worker):
            if work.start == 64 * 7:
                raise ZeroDivisionError("genuine bug")

        with pytest.raises(ZeroDivisionError) as info:
            run_with_timeout(lambda: executor.run(64 * 20, boom))
        assert info.value.failed_work.start == 64 * 7
        assert info.value.failed_worker.startswith("exec-w")

    def test_retries_do_not_mask_genuine_bugs(self):
        # A genuine exception must not be retried even under a plan that
        # injects transients elsewhere.
        calls = []
        executor = MorselExecutor(workers=2, morsel_tuples=64)

        def boom(work, worker):
            if work.start == 0:
                calls.append(work.start)
                raise KeyError("not transient")

        plan = FaultPlan(seed=6, rules=[TransientError(probability=0.0)])
        with plan.install():
            with pytest.raises(KeyError):
                run_with_timeout(lambda: executor.run(64 * 10, boom))
        assert calls == [0]


class TestProbeWritesInPlace:
    """``execute_probe`` allocates its two outputs once and every morsel
    fills its own rows — no per-morsel arrays to stitch together."""

    MORSEL = 64
    #: not a multiple of the morsel size: 15 morsels and a ragged one
    PROBES = MORSEL * 15 + 17

    @classmethod
    def table_and_probes(cls, scheme):
        from repro.core.hashtable import create_hash_table

        rng = np.random.default_rng(8)
        keys = rng.permutation(500).astype(np.int64)
        table = create_hash_table(scheme, len(keys), np.int64, np.int64)
        table.insert_batch(keys, keys * 3 + 1)
        # a third of the probes miss
        probes = rng.integers(0, 750, size=cls.PROBES).astype(np.int64)
        return table, probes

    @pytest.mark.parametrize("scheme", ("perfect", "open_addressing", "chaining"))
    def test_ragged_probe_never_concatenates(self, scheme, monkeypatch):
        from repro.exec import functional

        serial_table, probes = self.table_and_probes(scheme)
        serial = functional.execute_probe(serial_table, probes)
        table, _ = self.table_and_probes(scheme)
        calls = []
        real_concatenate = np.concatenate

        def counting_concatenate(*args, **kwargs):
            calls.append(args)
            return real_concatenate(*args, **kwargs)

        monkeypatch.setattr(functional.np, "concatenate", counting_concatenate)
        # More workers than cores and a near-zero switch interval: the
        # workers interleave inside the shared arrays, so a slice written
        # to the wrong rows could not go unnoticed below.
        executor = MorselExecutor(workers=4, morsel_tuples=self.MORSEL)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found, values = run_with_timeout(
                lambda: functional.execute_probe(table, probes, executor)
            )
        finally:
            sys.setswitchinterval(interval)
        assert calls == []
        assert found.base is None and values.base is None  # whole arrays
        assert np.array_equal(found, serial[0])
        assert np.array_equal(values, serial[1])
        assert table.stats.as_tuple() == serial_table.stats.as_tuple()

    @pytest.mark.parametrize("scheme", ("perfect", "open_addressing", "chaining"))
    def test_transient_fault_on_a_probe_morsel_equals_serial(self, scheme):
        from repro.exec import execute_probe

        serial_table, probes = self.table_and_probes(scheme)
        serial = execute_probe(serial_table, probes)
        table, _ = self.table_and_probes(scheme)
        log = ResilienceLog()
        executor = MorselExecutor(
            workers=3, morsel_tuples=self.MORSEL, resilience=log
        )
        plan = FaultPlan(seed=9, rules=[TransientError(ordinal=4)])
        with plan.install():
            found, values = run_with_timeout(
                lambda: execute_probe(table, probes, executor)
            )
        assert plan.injected_counts() == {"transient": 1}
        assert log.count("retry") == 1
        assert np.array_equal(found, serial[0])
        assert np.array_equal(values, serial[1])
        assert table.stats.as_tuple() == serial_table.stats.as_tuple()
