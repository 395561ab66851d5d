"""Every committed baseline equals a fresh run of its producer.

``baselines/`` pins the reproduction's virtual-time numbers: one file
per :data:`repro.bench.baselines.BASELINES` entry.  A change that moves
any phase cost, bottleneck, occupancy or result fails here until
``python -m repro.bench.baselines`` is rerun and the new files are
committed.
"""

import copy

import pytest

from repro.bench.baselines import (
    BASELINES,
    BASELINES_DIR,
    check,
    load,
    path_of,
    refresh,
)


@pytest.fixture(scope="module")
def refreshed(tmp_path_factory):
    """Two independent refreshes, each into its own directory."""
    first = tmp_path_factory.mktemp("first")
    second = tmp_path_factory.mktemp("second")
    refresh(first)
    refresh(second)
    return first, second


def test_registry_names_equal_committed_files():
    committed = sorted(path.stem for path in BASELINES_DIR.glob("*.json"))
    assert committed == sorted(BASELINES)


def test_no_run_kind_in_two_files():
    owner = {}
    for name in BASELINES:
        for run in load(path_of(name)):
            assert run["kind"] not in owner, (
                f"run {run['kind']!r} is in both {owner.get(run['kind'])} "
                f"and {name}"
            )
            owner[run["kind"]] = name


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_fresh_run_matches_committed(refreshed, name):
    fresh = load(path_of(name, refreshed[0]))
    assert check(name, fresh) == []


def test_refresh_is_byte_identical_and_equals_committed(refreshed):
    first, second = refreshed
    for name in BASELINES:
        committed = path_of(name).read_bytes()
        assert path_of(name, first).read_bytes() == committed, name
        assert path_of(name, second).read_bytes() == committed, name


def _scale_seconds(runs):
    run = next(run for run in runs if run["phases"])
    run["phases"][0]["seconds"] *= 1.001
    return run["kind"], f"phases.{run['phases'][0]['label']}.seconds"


def _change_result(runs):
    run = runs[0]
    key = next(
        key for key, value in run["results"].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    run["results"][key] += 1
    return run["kind"], f"results.{key}"


def _drop_section(runs):
    run = runs[0]
    section = run["sections"].pop()
    return run["kind"], f"section {section!r} lost"


@pytest.mark.parametrize(
    "mutate", (_scale_seconds, _change_result, _drop_section),
    ids=("seconds", "result", "section"),
)
@pytest.mark.parametrize("name", ("reference_joins", "serving_latency"))
def test_mutation_is_caught_naming_file_kind_and_field(name, mutate):
    runs = copy.deepcopy(load(path_of(name)))
    kind, field = mutate(runs)
    (difference,) = check(name, runs)
    assert difference.startswith(f"{name}.json: run {kind!r}")
    assert field in difference
