"""Every seeded generator is a pure function of its arguments.

Figures, plan goldens and ``baselines/`` regenerate bit-for-bit only
because each generator draws from ``default_rng(<seed>)`` with a fixed
default seed.  An unseeded ``default_rng()`` slipped into one of them
changes no shape and no mean, so nothing else notices; here it makes two
calls with the same (default) seed disagree.
"""

import inspect

import numpy as np
import pytest

from repro import workloads

#: executed fraction for the join workloads; the seed stays its default.
SCALE = 2.0**-14


def _join_columns(wl):
    return [wl.r.key, wl.r.payload, wl.s.key, wl.s.payload]


def _q6_columns(wl):
    return [wl["l_shipdate"], wl["l_discount"], wl["l_quantity"], wl["l_extendedprice"]]


GENERATORS = {
    "workload_a": lambda: _join_columns(workloads.workload_a(scale=SCALE)),
    "workload_b": lambda: _join_columns(workloads.workload_b(scale=SCALE)),
    "workload_c": lambda: _join_columns(workloads.workload_c(scale=SCALE)),
    "workload_skewed": lambda: _join_columns(
        workloads.workload_skewed(1.25, scale=SCALE)
    ),
    "workload_selectivity": lambda: _join_columns(
        workloads.workload_selectivity(0.5, scale=SCALE)
    ),
    "workload_ratio": lambda: _join_columns(
        workloads.workload_ratio(4, scale=SCALE)
    ),
    "lineitem_q6": lambda: _q6_columns(workloads.lineitem_q6(1.0)),
    "zipf_ranks": lambda: [workloads.zipf_ranks(1000, 1.25, 4096)],
}


def _seeded_functions():
    for name, obj in vars(workloads).items():
        if inspect.isfunction(obj) and {"seed", "rng"} & set(
            inspect.signature(obj).parameters
        ):
            yield name


def test_every_seeded_generator_is_covered():
    assert sorted(_seeded_functions()) == sorted(GENERATORS)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_default_seed_reproduces_output(name):
    first, second = GENERATORS[name](), GENERATORS[name]()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
