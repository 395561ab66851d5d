"""Failure injection: chaos runs recover; corruption fails loudly.

Two families:

* **Misuse & corruption** — broken invariants (corrupted hash tables,
  impossible schedules, exhausted memory mid-operation) surface as
  exceptions rather than wrong answers ("errors should never pass
  silently").
* **Chaos suite** — seeded :class:`~repro.faults.FaultPlan`\\ s inject
  crashes, transients, OOM, and degraded links into full join runs; the
  run must recover to *bit-identical* results (and, for pricing-neutral
  faults, bit-identical manifests minus the ``resilience`` section),
  with the resilience section accounting for every injected fault.
  ``CHAOS_SEEDS`` is the fixed set CI's chaos job sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable.open_addressing import OpenAddressingHashTable
from repro.core.hashtable.perfect import PerfectHashTable
from repro.core.join.nopa import NoPartitioningJoin
from repro.exec import MorselExecutor, MorselFailedError
from repro.faults import (
    CHAOS_SEEDS,
    CrashWorker,
    DegradeLink,
    FaultPlan,
    ResilienceLog,
    RetryPolicy,
    TransientError,
    chaos_plan,
)
from repro.memory.allocator import Allocator, OutOfMemoryError
from repro.obs.manifest import build_manifest
from repro.sim.engine import SimulationError, Simulator
from repro.utils.units import GIB


class TestCorruptedHashTables:
    def test_open_addressing_full_table_lookup_of_absent_key_terminates(self):
        # A completely full table has no EMPTY slot to stop a miss probe;
        # the guard must terminate the scan (the key is provably absent
        # after capacity probes) rather than loop forever.
        table = OpenAddressingHashTable(4, load_factor=0.9)
        keys = np.arange(table.capacity, dtype=np.int64)
        with pytest.raises(ValueError):
            # Cannot even fill it beyond capacity through the API ...
            table.insert_batch(
                np.arange(table.capacity + 1, dtype=np.int64),
                np.zeros(table.capacity + 1, dtype=np.int64),
            )
        # ... so corrupt it directly and probe.  After `capacity` rounds
        # every slot has been inspected, so the probe terminates with a
        # definitive not-found instead of spinning (or crashing) on the
        # missing EMPTY sentinel.
        table.keys[:] = 7  # all slots claim key 7
        table.size = table.capacity
        found, _ = table.lookup_batch(np.array([3], dtype=np.int64))
        assert not found.any()
        assert table.stats.lookup_probes == table.capacity

    def test_perfect_table_rejects_foreign_writes(self):
        table = PerfectHashTable(8)
        table.insert_batch(
            np.arange(8, dtype=np.int64), np.arange(8, dtype=np.int64)
        )
        # Tampering with a slot makes the duplicate check fire on the
        # next legitimate insert of that key range.
        with pytest.raises(ValueError):
            table.insert_batch(
                np.array([3], dtype=np.int64), np.array([0], dtype=np.int64)
            )


class TestSchedulerMisuse:
    def test_simulator_rejects_past_events(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.5, lambda s: None)

    def test_simulator_rejects_reentrant_run(self):
        sim = Simulator()

        def recurse(s):
            s.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()


class TestMemoryExhaustion:
    def test_allocator_failure_leaves_consistent_state(self, ibm):
        allocator = Allocator(ibm)
        kept = allocator.alloc("cpu0-mem", 100 * GIB)
        before = ibm.memory("cpu0-mem").allocated
        with pytest.raises(OutOfMemoryError):
            allocator.alloc("cpu0-mem", 100 * GIB)
        assert ibm.memory("cpu0-mem").allocated == before
        allocator.free(kept)

    def test_join_oom_leaves_machine_clean(self, ibm):
        from repro.core.join.nopa import NoPartitioningJoin
        from repro.workloads.builders import workload_ratio

        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        with pytest.raises(OutOfMemoryError):
            join.run(wl.r, wl.s)
        for memory in ibm.memories.values():
            assert memory.allocated == 0
        # The machine is still usable afterwards.
        ok = NoPartitioningJoin(ibm, hash_table_placement="cpu").run(wl.r, wl.s)
        assert ok.matches == wl.s.executed_tuples


class TestDegenerateInputs:
    def test_empty_relations_join_cleanly(self, ibm):
        from repro.core.join.nopa import NoPartitioningJoin
        from repro.data.relation import Relation

        r = Relation(
            name="R",
            key=np.arange(64, dtype=np.int64),
            payload=np.arange(64, dtype=np.int64),
        )
        s = Relation(
            name="S",
            key=np.array([], dtype=np.int64),
            payload=np.array([], dtype=np.int64),
            modeled_tuples=1,
        )
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(r, s)
        assert res.matches == 0
        assert res.runtime > 0  # build still costs time

    def test_single_tuple_workload(self, ibm):
        from repro.core.join.nopa import NoPartitioningJoin
        from repro.data.relation import Relation

        r = Relation(
            name="R",
            key=np.array([0], dtype=np.int64),
            payload=np.array([10], dtype=np.int64),
        )
        s = Relation(
            name="S",
            key=np.array([0, 0, 0], dtype=np.int64),
            payload=np.array([1, 2, 3], dtype=np.int64),
        )
        res = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(r, s)
        assert res.matches == 3
        assert res.aggregate == 30


# ---------------------------------------------------------------------------
# Chaos suite: seeded fault plans against full join runs
# ---------------------------------------------------------------------------

#: morsel size small enough that the reduced-scale workloads decompose
#: into dozens of morsels per phase — plenty of injection sites.
#: ``CHAOS_SEEDS`` / ``chaos_plan`` come from ``repro.faults.scenarios``
#: so the suite and the chaos bench sweep the exact same plans.
CHAOS_MORSEL_TUPLES = 4096


def chaos_join(machine, **overrides):
    config = dict(
        hash_table_placement="gpu",
        transfer_method="coherence",
        backend="threads",
        workers=4,
        exec_morsel_tuples=CHAOS_MORSEL_TUPLES,
        oom_policy="spill",
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0),
    )
    config.update(overrides)
    return NoPartitioningJoin(machine, **config)


def manifest_dict(join, result, kind):
    manifest = build_manifest(
        kind,
        join.machine,
        [result.build_cost, result.probe_cost],
        results={"matches": result.matches, "aggregate": result.aggregate},
        obs=join.obs,
        resilience=None,  # compared separately
    )
    return manifest.to_dict()


class TestChaosEquivalence:
    """Seeded chaos runs recover to bit-identical join output."""

    @pytest.mark.parametrize("backend", ("threads",))
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_run_matches_fault_free_serial(self, ibm, wl_a, seed, backend):
        baseline = chaos_join(ibm, backend="serial").run(wl_a.r, wl_a.s)
        join = chaos_join(ibm, backend=backend)
        plan = chaos_plan(seed)
        with plan.install():
            result = join.run(wl_a.r, wl_a.s)
        assert result.matches == baseline.matches
        assert result.aggregate == baseline.aggregate
        assert result.payload_lines_loaded == baseline.payload_lines_loaded
        # TableStats-derived pricing inputs are identical too.
        assert (
            result.table_stats_probe_factor == baseline.table_stats_probe_factor
        )

    @pytest.mark.parametrize("backend", ("threads",))
    @pytest.mark.parametrize("seed", [101, 202])
    def test_pricing_neutral_chaos_manifest_identical_minus_resilience(
        self, ibm, wl_a, seed, backend
    ):
        # Crashes and transients change *wall-clock* recovery work only;
        # the priced manifest (phases, metrics, spans, results) must be
        # bit-identical to a fault-free serial run.
        base_join = chaos_join(ibm, backend="serial")
        base = base_join.run(wl_a.r, wl_a.s)
        join = chaos_join(ibm, backend=backend)
        plan = chaos_plan(seed)
        with plan.install():
            result = join.run(wl_a.r, wl_a.s)
        assert manifest_dict(join, result, "nopa[chaos]") == manifest_dict(
            base_join, base, "nopa[chaos]"
        )

    def test_fault_draws_do_not_depend_on_the_pulling_worker(self, ibm, wl_a):
        # A probability draw is keyed by the morsel, not by whichever
        # worker pulled it: every worker count, on every repeat, faults
        # the same morsels.
        injected = set()
        for workers in (1, 2, 4, 1, 2, 4):
            plan = chaos_plan(101)
            with plan.install():
                chaos_join(ibm, workers=workers).run(wl_a.r, wl_a.s)
            injected.add(
                tuple(
                    sorted((r.site["start"], r.site["attempt"]) for r in plan.injected)
                )
            )
        assert len(injected) == 1
        assert next(iter(injected)), "seed 101 injected nothing"

    def test_oom_seed_degrades_to_hybrid_with_identical_results(self, ibm, wl_a):
        baseline = chaos_join(ibm, backend="serial").run(wl_a.r, wl_a.s)
        join = chaos_join(ibm)
        plan = chaos_plan(303)
        with plan.install():
            result = join.run(wl_a.r, wl_a.s)
        # Degradation changes the placement (performance), never results.
        assert result.placement.label == "hybrid"
        assert result.matches == baseline.matches
        assert result.aggregate == baseline.aggregate
        (event,) = [e for e in join.last_resilience.events if e.action == "spill"]
        assert event.detail["from_strategy"] == "gpu"
        assert event.detail["to_strategy"] == "hybrid"
        assert plan.injected_counts() == {"oom": 1}

    def test_ci_seed_set_collectively_exercises_all_recoveries(self, ibm, wl_a):
        totals = {"retry": 0, "redispatch": 0, "spill": 0}
        for seed in CHAOS_SEEDS:
            join = chaos_join(ibm)
            plan = chaos_plan(seed)
            with plan.install():
                join.run(wl_a.r, wl_a.s)
            counts = join.last_resilience.counts()
            for key in totals:
                totals[key] += counts[key]
        assert totals["retry"] >= 1, totals
        assert totals["redispatch"] >= 1, totals
        assert totals["spill"] >= 1, totals

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_resilience_section_accounts_for_every_injected_fault(
        self, ibm, wl_a, seed
    ):
        join = chaos_join(ibm)
        plan = chaos_plan(seed)
        with plan.install():
            join.run(wl_a.r, wl_a.s)
        section = join.last_resilience.section(plan)
        counts = section["injected_counts"]
        counters = section["counters"]
        assert len(section["injected"]) == sum(counts.values())
        assert sum(counts.values()) >= 1, "seed injected nothing"
        # Every morsel-level fault produced exactly one recovery action
        # (retry or re-dispatch); every OOM produced one spill.
        morsel_faults = counts.get("transient", 0) + counts.get("crash", 0)
        assert counters["retry"] + counters["redispatch"] == morsel_faults
        assert counters["spill"] == counts.get("oom", 0)


class TestChaosProperty:
    """Hypothesis: any recoverable seeded plan is output-invisible."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        crash_probability=st.floats(min_value=0.0, max_value=0.25),
        transient_probability=st.floats(min_value=0.0, max_value=0.5),
        workers=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_recoverable_plan_is_bit_identical_to_serial(
        self, seed, crash_probability, transient_probability, workers
    ):
        total = 64 * 23
        data = np.arange(total, dtype=np.int64)
        expected = data * 2
        log = ResilienceLog()
        executor = MorselExecutor(
            workers=workers,
            morsel_tuples=64,
            name="exec",
            resilience=log,
            retry=RetryPolicy(max_attempts=8, base_delay=0.0),
        )
        plan = FaultPlan(
            seed=seed,
            rules=[
                # attempts=(0,) (the default) makes transients
                # recoverable by construction; times=3 bounds crashes
                # under the attempt budget.
                TransientError(probability=transient_probability, times=None),
                CrashWorker(probability=crash_probability, times=3),
            ],
        )
        with plan.install():
            parts = executor.map_values(
                total, lambda work, worker: data[work.start : work.end] * 2
            )
        assert np.array_equal(np.concatenate(parts), expected)
        # Accounting: every injected morsel fault is answered by exactly
        # one recovery action.
        counts = plan.injected_counts()
        injected = counts.get("transient", 0) + counts.get("crash", 0)
        assert log.count("retry") + log.count("redispatch") == injected


class TestChaosUnrecoverable:
    def test_unrecoverable_plan_raises_typed_error_naming_the_range(self, ibm, wl_a):
        import threading

        join = chaos_join(ibm, retry_policy=RetryPolicy(max_attempts=2))
        plan = FaultPlan(
            seed=9,
            name="chaos-unrecoverable",
            rules=[TransientError(probability=1.0, attempts=None, times=None)],
        )
        with plan.install():
            with pytest.raises(MorselFailedError) as info:
                join.run(wl_a.r, wl_a.s)
        err = info.value
        assert err.work.end > err.work.start
        assert f"[{err.work.start}, {err.work.end})" in str(err)
        assert "attempt" in str(err)
        # No stranded pool threads after the failure.
        assert not [
            t for t in threading.enumerate() if t.name.startswith("nopa-w")
        ]


class TestGracefulDegradation:
    def test_real_oom_spills_to_hybrid_fig8(self, ibm):
        # The genuine Figure 8 situation: a modeled build side larger
        # than GPU memory.  With oom_policy="spill" the join degrades to
        # the hybrid (GPU-first, CPU-spill) placement instead of dying.
        from repro.workloads.builders import workload_ratio

        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        join = NoPartitioningJoin(
            ibm, hash_table_placement="gpu", oom_policy="spill"
        )
        result = join.run(wl.r, wl.s)
        assert result.placement.label == "hybrid"
        assert 0.0 < result.placement.gpu_fraction(ibm) < 1.0
        assert join.last_resilience.count("spill") == 1
        assert result.matches == wl.s.executed_tuples
        # The machine is left clean (the placement probe frees its
        # capacity), so a second run still succeeds.
        assert ibm.memory("gpu0-mem").allocated == 0

    def test_default_oom_policy_still_raises(self, ibm):
        from repro.workloads.builders import workload_ratio

        wl = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
        join = NoPartitioningJoin(ibm, hash_table_placement="gpu")
        with pytest.raises(OutOfMemoryError):
            join.run(wl.r, wl.s)

    def test_degraded_link_prices_slower_but_identical_results(self, ibm, wl_a):
        fast = chaos_join(ibm, backend="serial", hash_table_placement="cpu")
        base = fast.run(wl_a.r, wl_a.s)
        slow_join = chaos_join(ibm, backend="serial", hash_table_placement="cpu")
        plan = FaultPlan(
            seed=7,
            name="chaos-slow-link",
            rules=[DegradeLink(factor=0.25, method="coherence")],
        )
        with plan.install():
            slow = slow_join.run(wl_a.r, wl_a.s)
        assert slow.matches == base.matches
        assert slow.aggregate == base.aggregate
        assert slow.runtime > base.runtime
        assert plan.injected_counts().get("degraded_link", 0) >= 1
