"""Branch-and-bound planning over generated machines.

The test compiles and executes every candidate itself, so it is the
oracle: every candidate's bound is at most its makespan, and the
optimizer's choice is the exhaustive ``min((seconds, index))``, bit for
bit, although it prices only the candidates whose bound can still win.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.calibration import DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel
from repro.logical import LogicalError, compile_query, optimize
from repro.logical.explain import WORKLOADS
from repro.logical.optimizer import REJECTIONS, _enumerate
from repro.obs import INERT
from repro.plan import PlanExecutor
from tests.logical.test_optimizer_property import _WORKLOADS, _join_query
from tests.property.machines import machines


def exhaustive(query, machine, label):
    """(config, makespan) per candidate point; ``None`` when rejected."""
    _shape, points = _enumerate(
        query, machine, DEFAULT_CALIBRATION, "gpu0", None, "perfect", label
    )
    executor = PlanExecutor(CostModel(machine, obs=INERT))
    priced = []
    for build_config, cand_query, stats in points:
        try:
            config = build_config()
            plan = compile_query(cand_query, config, executor.cost_model, stats)
            priced.append((config, executor.execute(plan).makespan))
        except REJECTIONS:
            priced.append(None)
    return priced


def check_against_oracle(query, machine, label=""):
    oracle = exhaustive(query, machine, label)
    try:
        result = optimize(query, machine, label=label)
    except LogicalError:
        assert all(point is None for point in oracle)
        return
    assert len(result.candidates) == len(oracle)
    for candidate, point in zip(result.candidates, oracle):
        assert (candidate.rejected is None) == (point is not None)
        if point is not None:
            assert candidate.bound <= point[1]
    seconds, index = min(
        (point[1], i) for i, point in enumerate(oracle) if point is not None
    )
    assert repr(result.chosen.config) == repr(oracle[index][0])
    assert repr(result.chosen.seconds) == repr(seconds)


@settings(max_examples=40, deadline=None)
@given(_WORKLOADS, machines())
def test_join_bounds_hold_and_pruning_keeps_the_winner(params, machine):
    modeled_r, modeled_s, selectivity, _machine_name = params
    query = _join_query(modeled_r, modeled_s, selectivity)
    check_against_oracle(query, machine)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(WORKLOADS)), machines())
def test_registry_bounds_hold_and_pruning_keeps_the_winner(name, machine):
    _description, build_query = WORKLOADS[name]
    check_against_oracle(build_query(), machine, label=name)
