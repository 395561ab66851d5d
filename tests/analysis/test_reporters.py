"""Reporter output: JSON schema stability and text summary shape.

The JSON schema is a public contract (CI and tooling parse it); this
test pins the exact key set so accidental changes force a deliberate
``SCHEMA_VERSION`` bump.
"""

import json

from repro.analysis import analyze_paths, get_passes, render_json, render_text
from repro.analysis.reporters import SCHEMA_VERSION, TOOL_NAME

from tests.analysis.conftest import fixture_path

TOP_LEVEL_KEYS = [
    "schema_version",
    "tool",
    "files_scanned",
    "summary",
    "stale_baseline_entries",
    "findings",
]
SUMMARY_KEYS = [
    "total",
    "unbaselined",
    "baselined",
    "errors",
    "warnings",
    "by_rule",
]
FINDING_KEYS = [
    "id",
    "rule",
    "severity",
    "path",
    "line",
    "column",
    "message",
    "context",
    "baselined",
    "suppression_reason",
]


def _report():
    return analyze_paths(
        [fixture_path("costmodel", "bad_units.py")],
        passes=get_passes(["unit-safety"]),
    )


def test_json_schema_is_stable():
    payload = json.loads(render_json(_report()))
    assert list(payload) == TOP_LEVEL_KEYS
    assert payload["schema_version"] == SCHEMA_VERSION == 3
    assert payload["tool"] == TOOL_NAME == "repro.analysis"
    assert list(payload["summary"]) == SUMMARY_KEYS
    assert payload["findings"], "fixture should produce findings"
    for finding in payload["findings"]:
        assert list(finding) == FINDING_KEYS
        assert isinstance(finding["line"], int)
        assert finding["severity"] in ("error", "warning")


def test_json_summary_counts_are_consistent():
    payload = json.loads(render_json(_report()))
    summary = payload["summary"]
    assert summary["total"] == len(payload["findings"])
    assert summary["total"] == summary["unbaselined"] + summary["baselined"]
    assert sum(summary["by_rule"].values()) == summary["total"]
    assert summary["by_rule"] == {"unit-safety": 6}


def test_text_report_lists_findings_and_summary():
    report = _report()
    text = render_text(report)
    lines = text.splitlines()
    assert lines[-1].startswith(f"{report.files_scanned} file(s) scanned: ")
    assert "6 finding(s), 0 baselined" in lines[-1]
    assert any("unit-safety" in line for line in lines)
    assert any("LINK_BANDWIDTH = 900e9" in line for line in lines)


def test_text_report_hides_baselined_unless_asked():
    report = _report()
    for finding in report.findings:
        finding.baselined = True
        finding.suppression_reason = "test"
    hidden = render_text(report)
    shown = render_text(report, show_baselined=True)
    assert "LINK_BANDWIDTH" not in hidden
    assert "LINK_BANDWIDTH" in shown
