"""Every fault-injection site reaches its ``repro.faults`` hook.

Chaos testing covers a site only if the site calls its hook.  A worker
loop that skips ``check_morsel``, an allocation that skips
``check_alloc``, or a transfer method whose bandwidth bypasses
``bandwidth_factor`` would pass every scenario in
``faults/scenarios.py`` without a fault ever reaching it.  Each test
drives one site under a :class:`CountingPlan` (no rules, so nothing is
injected) and asserts the hook was visited.

The ``serial`` backend hands the drivers ``executor=None``: one whole
batch call, no morsel loop and so no morsel site.  The morsel tests
therefore run the pool's two loops: in-line (one worker, the calling
thread) and threaded.
"""

import threading
from collections import Counter

import numpy as np
import pytest

import repro.exec.pool as pool_module
from repro.core.hashtable.chaining import ChainingHashTable
from repro.core.hashtable.perfect import PerfectHashTable
from repro.core.hashtable.placement import place_hash_table
from repro.costmodel.model import CostModel
from repro.exec import MorselExecutor, execute_build, execute_masks, execute_probe
from repro.faults import CrashWorker, FaultPlan
from repro.hardware.topology import ibm_ac922
from repro.memory.allocator import Allocator
from repro.memory.hybrid import allocate_hybrid, allocate_interleaved
from repro.transfer.methods import TRANSFER_METHODS
from repro.utils.units import MIB

ROWS = 1024
MORSEL = 64
KEYS = np.arange(ROWS, dtype=np.int64)


class CountingPlan(FaultPlan):
    """A fault plan that counts every hook visit (and the morsel workers)."""

    def __init__(self, rules=()):
        super().__init__(seed=0, rules=list(rules))
        self.visits = Counter()
        self.workers = set()
        self._count_lock = threading.Lock()

    def _count(self, hook, worker=None):
        with self._count_lock:
            self.visits[hook] += 1
            if worker is not None:
                self.workers.add(worker)

    def check_morsel(self, worker, start, end, attempt):
        self._count("check_morsel", worker)
        super().check_morsel(worker, start, end, attempt)

    def check_alloc(self, region, nbytes, label=""):
        self._count("check_alloc")
        super().check_alloc(region, nbytes, label)

    def bandwidth_factor(self, method, processor, src_memory):
        self._count("bandwidth_factor")
        return super().bandwidth_factor(method, processor, src_memory)


def _probe_table():
    table = PerfectHashTable(ROWS)
    table.insert_batch(KEYS, KEYS)
    return table


#: the exec drivers, one entry per morsel-decomposed path.  (An
#: open-addressing build stays one whole batch on every backend.)
DRIVERS = {
    "execute_build(perfect)": lambda ex: execute_build(
        PerfectHashTable(ROWS), KEYS, KEYS, ex
    ),
    "execute_build(chaining)": lambda ex: execute_build(
        ChainingHashTable(ROWS), KEYS, KEYS, ex
    ),
    "execute_probe": lambda ex: execute_probe(_probe_table(), KEYS, ex),
    "execute_masks": lambda ex: execute_masks(
        ROWS, [lambda start, end: KEYS[start:end] % 2 == 0], ex
    ),
}

EXECUTORS = {"inline": 1, "threads": 4}


def assert_morsel_hooked(driver, executor):
    plan = CountingPlan()
    with plan.install():
        DRIVERS[driver](
            MorselExecutor(workers=EXECUTORS[executor], morsel_tuples=MORSEL)
        )
    morsels = ROWS // MORSEL
    assert plan.visits["check_morsel"] == morsels, (
        f"{driver} on {executor}: {plan.visits['check_morsel']} "
        f"check_morsel visits for {morsels} morsels; a morsel that skips "
        "the hook cannot be crashed or faulted"
    )


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_morsel_passes_check_morsel(driver, executor):
    assert_morsel_hooked(driver, executor)


def test_serial_fallback_replay_passes_check_morsel():
    # Both pool workers die on their first morsel; the replay on the
    # calling thread must still visit the hook for every range it runs.
    plan = CountingPlan(
        [CrashWorker(worker=f"exec-w{i}", ordinal=0) for i in range(2)]
    )
    with plan.install():
        execute_probe(
            _probe_table(), KEYS, MorselExecutor(workers=2, morsel_tuples=MORSEL)
        )
    assert "exec-fallback" in plan.workers, (
        "the serial-fallback replay never reached check_morsel"
    )
    assert plan.visits["check_morsel"] == ROWS // MORSEL + 2


def test_hookless_threads_worker_loop_is_caught(monkeypatch):
    # The pool never consulting the plan is a worker loop with its
    # check_morsel call removed.
    monkeypatch.setattr(pool_module, "active_plan", lambda: None)
    with pytest.raises(AssertionError, match=(
        r"execute_probe on threads: 0 check_morsel visits for 16 morsels"
    )):
        assert_morsel_hooked("execute_probe", "threads")


#: every path that reserves region capacity or decides an allocation
#: fits, under memory/ and core/hashtable/.
ALLOC_SITES = {
    "Allocator.alloc": lambda m: Allocator(m).alloc("cpu0-mem", MIB),
    "allocate_hybrid": lambda m: allocate_hybrid(Allocator(m), "gpu0", MIB),
    "allocate_interleaved": lambda m: allocate_interleaved(
        Allocator(m), ["gpu0", "gpu1"], 4 * MIB
    ),
    "place_hash_table(gpu)": lambda m: place_hash_table(m, MIB, "gpu"),
    "place_hash_table(hybrid)": lambda m: place_hash_table(m, MIB, "hybrid"),
}


@pytest.mark.parametrize("site", sorted(ALLOC_SITES))
def test_every_allocation_site_passes_check_alloc(site):
    plan = CountingPlan()
    with plan.install():
        ALLOC_SITES[site](ibm_ac922())
    assert plan.visits["check_alloc"] >= 1, (
        f"allocation site {site} never reached check_alloc; OomAt rules "
        "cannot target it"
    )


@pytest.mark.parametrize("method", sorted(TRANSFER_METHODS))
def test_every_transfer_method_applies_bandwidth_factor(method):
    cost_model = CostModel(ibm_ac922())
    plan = CountingPlan()
    with plan.install():
        TRANSFER_METHODS[method].effective_ingest_bandwidth(
            cost_model, "gpu0", "cpu0-mem"
        )
    assert plan.visits["bandwidth_factor"] == 1, (
        f"transfer method {method} never applied bandwidth_factor; "
        "DegradeLink rules cannot slow it"
    )

