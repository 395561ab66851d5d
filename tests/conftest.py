"""Shared fixtures: machines and small workloads.

Machines are function-scoped (allocators mutate region bookkeeping);
workloads are session-scoped and must be treated as read-only.
"""

import functools

import pytest
from hypothesis import settings

from repro.bench.run_all import FIGURES
from repro.hardware.topology import ibm_ac922, intel_xeon_v100
from repro.workloads.builders import workload_a, workload_b, workload_c

# Tier 1 draws the same examples on every run: ``tier1`` derandomizes
# and keeps no example database, at Hypothesis's default example counts.
# ``pytest --hypothesis-profile=fuzz`` explores fresh examples instead
# (the CI ``fuzz`` job); a counterexample it finds becomes an
# ``@example`` pin in the test it broke.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", database=None)
settings.load_profile("tier1")

#: tiny execution scale for fast tests.
TEST_SCALE = 2.0**-14


@pytest.fixture
def ibm():
    return ibm_ac922()

@pytest.fixture
def ibm_one_gpu():
    return ibm_ac922(gpus=1)


@pytest.fixture
def intel():
    return intel_xeon_v100()


@pytest.fixture(scope="session")
def wl_a():
    return workload_a(scale=TEST_SCALE)


@pytest.fixture(scope="session")
def wl_b():
    return workload_b(scale=TEST_SCALE)


@pytest.fixture(scope="session")
def wl_c():
    return workload_c(scale=TEST_SCALE)


@pytest.fixture(scope="session")
def registry_result():
    """``registry_result(i)``: entry ``i`` of ``repro.bench.run_all.FIGURES``,
    run once per session; every caller shares the result, read-only."""
    return functools.lru_cache(maxsize=None)(lambda index: FIGURES[index].runner())
