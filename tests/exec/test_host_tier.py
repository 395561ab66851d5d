"""The join facades' default backend: the host tier, capped at usable CPUs.

``NoPartitioningJoin`` and ``CoopJoin`` default to ``backend=None``,
which runs the host tier of the probe rows (``repro.exec.host_tier``):
serial below 2¹⁸ rows, threads from there up, with no more threads than
the process has usable CPUs.  The plan config records the nominal tier,
as the optimizer does.  That a default run answers, counts and prices
exactly as a serial run is pinned by ``test_equivalence.py``.
"""

import pytest

import repro.core.join.coop as coop_module
import repro.core.join.nopa as nopa_module
import repro.exec.pool as pool
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin, join_query
from repro.exec import DEFAULT_WORKERS, host_tier
from repro.exec.pool import HOST_TIER_ROWS
from repro.hardware.topology import ibm_ac922
from repro.logical.optimizer import optimize
from repro.workloads.builders import workload_a


@pytest.fixture(scope="module")
def at_threshold():
    """|S| = 2¹⁸ probe rows: the smallest threads tier."""
    wl = workload_a(scale=2**-13)
    assert len(wl.s.key) == HOST_TIER_ROWS
    return wl


@pytest.fixture(scope="module")
def below():
    """|S| = 2¹⁷ probe rows: serial tier."""
    wl = workload_a(scale=2**-14)
    assert len(wl.s.key) < HOST_TIER_ROWS
    return wl


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable-CPU count the default backend caps its threads at."""

    def set_cpus(count):
        monkeypatch.setattr(pool, "usable_cpus", lambda: count)

    return set_cpus


@pytest.fixture
def compiled(monkeypatch):
    """Record every config the join facades compile."""
    configs = []
    for module in (nopa_module, coop_module):
        original = module.compile_query

        def record(query, config, cost_model, stats, _original=original):
            configs.append(config)
            return _original(query, config, cost_model, stats)

        monkeypatch.setattr(module, "compile_query", record)
    return configs


def run_nopa(wl, backend, **options):
    join = NoPartitioningJoin(ibm_ac922(), backend=backend, **options)
    join.run(wl.r, wl.s)
    return join


def run_coop(wl, backend):
    join = CoopJoin(ibm_ac922(), backend=backend)
    join.run(wl.r, wl.s)
    return join


class TestDefaultTier:
    def test_below_the_threshold_runs_serial(self, below, cpus):
        cpus(8)
        assert run_nopa(below, None).last_executor is None
        assert run_coop(below, None).last_executor is None

    def test_threads_are_capped_at_usable_cpus(self, at_threshold, cpus):
        cpus(64)
        assert run_nopa(at_threshold, None).last_executor.workers == (
            DEFAULT_WORKERS
        )
        cpus(3)
        assert run_nopa(at_threshold, None).last_executor.workers == 3
        assert run_coop(at_threshold, None).last_executor.workers == 3

    def test_one_usable_cpu_runs_serial_but_records_the_tier(
        self, at_threshold, cpus, compiled
    ):
        cpus(1)
        assert run_nopa(at_threshold, None).last_executor is None
        assert run_coop(at_threshold, None).last_executor is None
        tier = host_tier(len(at_threshold.s.key))
        assert tier == ("threads", DEFAULT_WORKERS)
        assert [(c.backend, c.exec_workers) for c in compiled] == [tier] * 2

    def test_explicit_backends_ignore_the_tier(self, below, at_threshold, cpus):
        cpus(1)
        assert run_nopa(below, "threads").last_executor.workers == (
            DEFAULT_WORKERS
        )
        cpus(8)
        assert run_nopa(at_threshold, "serial").last_executor is None

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            NoPartitioningJoin(ibm_ac922(), backend="gpu")
        with pytest.raises(ValueError, match="unknown execution backend"):
            CoopJoin(ibm_ac922(), backend="gpu")

    @pytest.mark.parametrize("size", ["below", "at_threshold"])
    def test_facades_record_the_optimizers_tier(self, size, request, compiled):
        wl = request.getfixturevalue(size)
        run_nopa(wl, None)
        run_coop(wl, None)
        chosen = optimize(join_query(wl.r, wl.s), ibm_ac922()).chosen.config
        optimizer_tier = (chosen.backend, chosen.exec_workers)
        assert optimizer_tier == host_tier(len(wl.s.key))
        assert [(c.backend, c.exec_workers) for c in compiled] == [
            optimizer_tier
        ] * 2


def without_backend(description):
    return [part for part in description.split() if not part.startswith("backend=")]


class TestDescribe:
    def test_a_serial_run_is_described_with_one_worker(self, below, compiled):
        run_nopa(below, "serial")
        run_coop(below, "serial")
        for config in compiled:
            assert config.exec_workers == DEFAULT_WORKERS
            assert "backend=serialx1" in config.describe()

    def test_a_threads_run_is_described_with_its_workers(self, below, compiled):
        run_nopa(below, "threads", workers=3)
        (config,) = compiled
        assert "backend=threadsx3" in config.describe()

    def test_a_default_run_is_described_as_its_tier(
        self, at_threshold, cpus, compiled
    ):
        cpus(2)
        for run in (run_nopa, run_coop):
            run(at_threshold, None)
            run(at_threshold, "serial")
        for default, serial in zip(compiled[::2], compiled[1::2]):
            assert "backend=threadsx4" in default.describe()
            assert "backend=serialx1" in serial.describe()
            assert without_backend(default.describe()) == without_backend(
                serial.describe()
            )
