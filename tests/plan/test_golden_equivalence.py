"""Golden equivalence: plan-compiled operators == pre-refactor seed.

``golden_reference.json`` was recorded by running the case builders in
:mod:`tests.plan.golden_cases` against the seed code, *before* the
operators were refactored onto the phase-plan IR.  Re-running the same
builders now must reproduce every functional integer exactly and every
cost float to numerical equality — the refactor moved pricing into the
executor without changing a single number.
"""

import json
import math
import os

import pytest

from tests.plan.golden_cases import CASES, COMPILED, flatten

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reference.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name):
    got = dict(flatten(CASES[name]()))
    want = dict(flatten(GOLDEN[name]))
    assert got.keys() == want.keys(), sorted(
        got.keys() ^ want.keys()
    )
    mismatches = []
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, float):
            if not math.isclose(
                actual, expected, rel_tol=1e-9, abs_tol=1e-15
            ):
                mismatches.append((key, expected, actual))
        elif actual != expected:
            mismatches.append((key, expected, actual))
    assert mismatches == []


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compile_query_prices_like_the_facade(name):
    """Multi-GPU, radix, the selection scan and Q6 are ordinary lowering
    targets: stating the logical query + ``PhysicalConfig`` directly to
    ``compile_query`` prices every phase exactly as the facade does."""
    compiled, facade = COMPILED[name](GOLDEN)
    assert compiled.keys() == facade.keys()
    for phase, expected in facade.items():
        assert math.isclose(
            compiled[phase], expected, rel_tol=1e-9, abs_tol=1e-15
        ), (phase, expected, compiled[phase])
