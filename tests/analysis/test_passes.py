"""Each rule must fire on its bad fixture and stay silent on the good one.

The acceptance bar for the analyzer: deliberately-seeded violations
under ``tests/analysis/fixtures/`` are each detected by their pass, and
idiomatic code in the same scope produces zero findings.
"""

import os
import shutil

import pytest

from repro.analysis import ALL_PASSES, analyze_paths
from repro.analysis.runner import analyze_source

from tests.analysis.conftest import fixture_path

BAD_FIXTURES = {
    "lock-discipline": (fixture_path("exec", "bad_pool_race.py"), 3),
}

GOOD_FIXTURES = {
    "lock-discipline": fixture_path("exec", "good_locks.py"),
}


def _passes(rule):
    return [p for p in ALL_PASSES if p.name == rule]


@pytest.mark.parametrize("rule", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_rule(rule):
    path, expected = BAD_FIXTURES[rule]
    report = analyze_paths([path], passes=_passes(rule))
    assert len(report.findings) == expected, [str(f) for f in report.findings]
    assert all(f.rule == rule for f in report.findings)
    assert all(not f.baselined for f in report.findings)


@pytest.mark.parametrize("rule", sorted(GOOD_FIXTURES))
def test_good_fixture_is_clean(rule):
    report = analyze_paths([GOOD_FIXTURES[rule]], passes=_passes(rule))
    assert report.findings == [], [str(f) for f in report.findings]


def test_fixture_tree_total_counts():
    """Running every pass over the whole fixture tree finds exactly the
    seeded violations — nothing more (no cross-rule false positives)."""
    report = analyze_paths([fixture_path()])
    by_rule = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    assert by_rule == {"lock-discipline": 4}


def test_scratch_path_is_scanned_like_any_other(tmp_path):
    """No directory name is skipped by default: a copy of the ``exec``
    fixtures under a ``scratch`` directory yields the same findings."""

    def findings(path):
        report = analyze_paths([path])
        assert report.files_scanned == 3
        return sorted(
            (os.path.basename(f.path), f.rule, f.line, f.column, f.message)
            for f in report.findings
        )

    copy = shutil.copytree(fixture_path("exec"), tmp_path / "scratch" / "exec")
    expected = findings(fixture_path("exec"))
    assert len(expected) == 4
    assert findings(str(copy)) == expected


def test_lock_discipline_race_findings():
    """Every lock-free access to a guarded attribute is a finding: the
    write, the read in ``drain_unsafe`` and the worker loop's read."""
    path = fixture_path("exec", "bad_pool_race.py")
    report = analyze_paths([path], passes=_passes("lock-discipline"))
    assert len(report.findings) == 3, [str(f) for f in report.findings]
    kinds = sorted(
        (f.message.split("`")[1], " write in " in f.message)
        for f in report.findings
    )
    assert kinds == [
        ("self.closed", False),
        ("self.items", False),
        ("self.items", True),
    ]


def test_lock_order_cycle_detected():
    path = fixture_path("exec", "bad_lock_order.py")
    report = analyze_paths([path], passes=_passes("lock-discipline"))
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert "deadlock candidate" in finding.message
    assert "LOCK_A" in finding.message and "LOCK_B" in finding.message


def _deep_chain_module(depth):
    """``with LOCK_A: f1()`` -> f1 -> ... -> f{depth} takes LOCK_B, and
    ``g`` takes B then A.  Callers come first in the file, so each round
    of the may-acquire fixpoint climbs one level of the chain."""
    lines = [
        "import threading",
        "LOCK_A = threading.Lock()",
        "LOCK_B = threading.Lock()",
        "def entry():",
        "    with LOCK_A:",
        "        f1()",
    ]
    for level in range(1, depth):
        lines += [f"def f{level}():", f"    f{level + 1}()"]
    lines += [
        f"def f{depth}():",
        "    with LOCK_B:",
        "        pass",
        "def g():",
        "    with LOCK_B:",
        "        with LOCK_A:",
        "            pass",
    ]
    return "\n".join(lines) + "\n"


def test_lock_order_cycle_through_deep_call_chain():
    """The may-acquire fixpoint runs to convergence, however deep the
    call chain that carries the second lock."""
    findings = analyze_source(
        _deep_chain_module(60),
        path="src/repro/exec/deep.py",
        passes=_passes("lock-discipline"),
    )
    assert len(findings) == 1, [str(f) for f in findings]
    assert "deadlock candidate" in findings[0].message


def test_out_of_scope_module_is_ignored():
    """A lock-free write of a lock-guarded global is a finding only in
    the subtrees lock-discipline is scoped to."""
    source = (
        "import threading\n"
        "_lock = threading.Lock()\n"
        "_state = None\n"
        "def install(value):\n"
        "    global _state\n"
        "    with _lock:\n"
        "        _state = value\n"
        "def reset():\n"
        "    global _state\n"
        "    _state = None\n"
    )
    assert analyze_source(source, path="src/repro/utils/whatever.py") == []
    findings = analyze_source(source, path="src/repro/exec/whatever.py")
    assert [(f.rule, f.line) for f in findings] == [("lock-discipline", 10)]


def test_syntax_error_becomes_finding():
    findings = analyze_source("def broken(:\n", path="src/repro/core/x.py")
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"


def test_rule_registry_is_stable():
    assert [p.name for p in ALL_PASSES] == ["lock-discipline"]
    for p in ALL_PASSES:
        assert p.description
        # Every pass constrains where it applies.
        assert p.scope
