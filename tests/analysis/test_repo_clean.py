"""Tier-1 gate: the shipped source tree passes its own static analysis.

This is the one place the analyzer runs: lock-guarded state may not be
touched lock-free or locked in a cycle (``lock-discipline``) without
either a fix or a justified baseline entry.  Layering rules — who may
price phases, build plans or drive the simulator — are checked by
``tests/test_architecture.py``.  One module-scoped scan of ``src/``
serves every test here.
"""

import os

import pytest

from repro.analysis import Baseline, analyze_paths

from tests.analysis.conftest import REPO_ROOT

BASELINE_PATH = os.path.join(REPO_ROOT, "analysis-baseline.json")
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture(scope="module")
def scan():
    baseline = Baseline.load(BASELINE_PATH)
    return baseline, analyze_paths([SRC], baseline=baseline)


def test_src_tree_has_no_unbaselined_findings(scan):
    _, report = scan
    assert report.files_scanned > 50, "scan should cover the whole src tree"
    offenders = [str(f) for f in report.unbaselined]
    assert offenders == [], "\n".join(
        ["src/ has unbaselined findings — fix them or add a justified",
         "baseline entry to analysis-baseline.json:"] + offenders
    )


def test_baseline_has_no_stale_entries(scan):
    baseline, _ = scan
    stale = [f"{e.path} [{e.rule}] {e.context!r}" for e in baseline.unused_entries()]
    assert stale == [], "\n".join(
        ["analysis-baseline.json has entries matching nothing — delete:"]
        + stale
    )


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(BASELINE_PATH)
    for entry in baseline.entries:
        assert entry.reason.strip(), f"{entry.path}: empty reason"
        assert len(entry.reason.strip()) >= 15, (
            f"{entry.path}: reason too thin to justify a suppression: "
            f"{entry.reason!r}"
        )
