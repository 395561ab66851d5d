"""Baseline suppression: matching, budgets, and schema validation."""

import pytest

from repro.analysis import Baseline, BaselineError, Finding, analyze_paths
from repro.analysis.runner import analyze_source

from tests.analysis.conftest import fixture_path

BAD_POOL = fixture_path("exec", "bad_pool_race.py")
BAD_LOCK_ORDER = fixture_path("exec", "bad_lock_order.py")
#: the lock-free write in ``drain_unsafe``.
WRITE_CONTEXT = "self.items = []"


def _baseline(entries):
    return Baseline.from_dict({"version": 1, "suppressions": entries})


def _entry(**overrides):
    entry = {
        "path": "exec/bad_pool_race.py",
        "rule": "lock-discipline",
        "context": WRITE_CONTEXT,
        "reason": "fixture: kept lock-free on purpose",
    }
    entry.update(overrides)
    return entry


def test_matching_entry_suppresses_finding():
    baseline = _baseline([_entry()])
    report = analyze_paths([BAD_POOL], baseline=baseline)
    baselined = [f for f in report.findings if f.baselined]
    assert len(baselined) == 1
    assert baselined[0].context == WRITE_CONTEXT
    assert baselined[0].suppression_reason == "fixture: kept lock-free on purpose"
    assert len(report.unbaselined) == len(report.findings) - 1
    assert baseline.unused_entries() == []


def test_count_budget_limits_suppressions():
    baseline = _baseline([_entry(reason="budget of one", count=1)])
    report = analyze_paths([BAD_POOL], baseline=baseline)
    assert sum(f.baselined for f in report.findings) == 1
    assert baseline.entries[0].used == 1
    # A second matching finding would exceed the budget.
    (write,) = [f for f in report.findings if f.context == WRITE_CONTEXT]
    assert not baseline.entries[0].matches(write)


def test_unused_entry_is_reported_stale():
    baseline = _baseline(
        [_entry(context="THIS_LINE_DOES_NOT_EXIST = 1", reason="stale on purpose")]
    )
    report = analyze_paths([BAD_POOL], baseline=baseline)
    assert len(report.unused_baseline_entries) == 1
    assert all(not f.baselined for f in report.findings)


def test_path_suffix_matches_only_at_a_directory_boundary():
    """``faults/runtime.py`` covers ``src/repro/faults/runtime.py`` (and
    the identical path) but not ``src/repro/myfaults/runtime.py``."""
    (entry,) = _baseline(
        [_entry(path="faults/runtime.py", context="return _active")]
    ).entries

    def finding(path):
        return Finding(
            rule="lock-discipline",
            path=path,
            line=29,
            column=12,
            message="m",
            context="return _active",
        )

    assert entry.matches(finding("src/repro/faults/runtime.py"))
    assert entry.matches(finding("faults/runtime.py"))
    assert not entry.matches(finding("src/repro/myfaults/runtime.py"))
    assert not entry.matches(finding("src/repro/faults/runtime.pyx"))


def test_baseline_entry_survives_line_shifts():
    """Entries key on (path, rule, stripped source line): inserting lines
    above a violation moves its line but it stays baselined."""
    with open(BAD_LOCK_ORDER, encoding="utf-8") as handle:
        source = handle.read()
    (finding,) = analyze_source(source, path=BAD_LOCK_ORDER)
    shifted = '"""Shifted."""\n\n\n' + source.split('"""', 2)[2].lstrip("\n")
    (moved,) = analyze_source(shifted, path=BAD_LOCK_ORDER)
    assert moved.line != finding.line
    baseline = _baseline(
        [_entry(path="exec/bad_lock_order.py", context=finding.context)]
    )
    baseline.apply([moved])
    assert moved.baselined
    assert baseline.unused_entries() == []


def test_missing_reason_rejected():
    with pytest.raises(BaselineError, match="reason"):
        _baseline([_entry(reason="")])


def test_wrong_version_rejected():
    with pytest.raises(BaselineError, match="version"):
        Baseline.from_dict({"version": 99, "suppressions": []})


def test_unknown_field_rejected():
    with pytest.raises(BaselineError, match="unknown field"):
        _baseline([_entry(line=12)])
    # Top-level fields outside the schema are rejected too.
    with pytest.raises(BaselineError, match="unknown field"):
        Baseline.from_dict(
            {"version": 1, "ratchet_limit": 1, "suppressions": []}
        )


def test_bad_count_rejected():
    with pytest.raises(BaselineError, match="count"):
        _baseline([_entry(count=0)])


def test_rule_mismatch_does_not_match():
    baseline = _baseline([_entry(rule="no-such-rule")])
    report = analyze_paths([BAD_POOL], baseline=baseline)
    assert all(not f.baselined for f in report.findings)
