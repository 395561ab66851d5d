"""The baseline comparison: identity passes, perturbations fail.

Unit cases of :func:`repro.bench.baselines.iter_differences` over the
committed ``reference_joins`` records; ``test_baselines.py`` diffs
every registry entry end to end.
"""

import copy

from repro.bench.baselines import (
    BASELINES,
    check,
    iter_differences,
    load,
    path_of,
    records,
)

NAME = "reference_joins"


def _runs():
    return load(path_of(NAME))


def test_baseline_matches_itself():
    assert check(NAME, _runs()) == []


def test_seconds_drift_detected():
    runs = _runs()
    drifted = copy.deepcopy(runs)
    drifted[0]["phases"][0]["seconds"] *= 1.001
    diffs = list(iter_differences(drifted, runs))
    assert len(diffs) == 1
    assert "seconds" in diffs[0]


def test_small_drift_within_tolerance_passes():
    runs = _runs()
    drifted = copy.deepcopy(runs)
    drifted[0]["phases"][0]["seconds"] *= 1 + 1e-9
    assert list(iter_differences(drifted, runs)) == []


def test_bottleneck_flip_detected():
    runs = _runs()
    drifted = copy.deepcopy(runs)
    drifted[0]["phases"][0]["bottleneck"] = "compute:elsewhere"
    diffs = list(iter_differences(drifted, runs))
    assert len(diffs) == 1
    assert "bottleneck" in diffs[0]


def test_occupancy_resource_changes_detected():
    runs = _runs()
    drifted = copy.deepcopy(runs)
    occupancy = drifted[0]["phases"][0]["occupancy"]
    resource = sorted(occupancy)[0]
    occupancy[resource] *= 2.0
    occupancy["link:phantom"] = 1.0
    diffs = list(iter_differences(drifted, runs))
    assert any(f"occupancy.{resource}:" in d for d in diffs)
    assert any("occupancy.link:phantom: not in baseline" in d for d in diffs)


def test_missing_phase_and_run_detected():
    runs = _runs()
    drifted = copy.deepcopy(runs)
    dropped_phase = drifted[0]["phases"].pop()
    dropped_run = drifted.pop()
    diffs = list(iter_differences(drifted, runs))
    assert any(
        f"phases.{dropped_phase['label']}: missing" in d for d in diffs
    )
    assert any(
        f"run {dropped_run['kind']!r}: missing" in d for d in diffs
    )


def test_new_populated_section_flagged_in_strict_mode():
    # There is no lenient mode: a section the baseline lacks is a
    # difference until the baseline is refreshed.
    runs = _runs()
    extended = copy.deepcopy(runs)
    extended[0]["sections"] = sorted(extended[0]["sections"] + ["optimizer"])
    diffs = list(iter_differences(extended, runs))
    assert len(diffs) == 1
    assert "'optimizer'" in diffs[0] and "new section" in diffs[0]


def test_null_section_is_not_a_difference():
    # Optional sections serialize as null when unused; only a populated
    # section is recorded.
    manifests = [manifest.to_dict() for manifest in BASELINES[NAME]()]
    assert manifests[0]["optimizer"] is None
    extended = copy.deepcopy(manifests)
    del extended[0]["optimizer"]
    assert records(extended) == records(manifests)


def test_lost_section_always_detected():
    runs = _runs()
    baseline = copy.deepcopy(runs)
    baseline[0]["sections"] = sorted(baseline[0]["sections"] + ["optimizer"])
    diffs = list(iter_differences(runs, baseline))
    assert len(diffs) == 1
    assert "'optimizer'" in diffs[0] and "lost" in diffs[0]
