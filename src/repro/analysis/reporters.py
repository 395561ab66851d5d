"""Text and JSON rendering of an analysis report.

The JSON schema is versioned and covered by a schema-stability test;
bump ``SCHEMA_VERSION`` when changing field names or structure.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.runner import AnalysisReport

#: v2: findings carry a stable ``id``; the summary splits
#: ``errors``/``warnings``.  v3: the incremental cache's
#: ``files_parsed``/``files_from_cache`` counters are gone.
SCHEMA_VERSION = 3
TOOL_NAME = "repro.analysis"


def render_text(report: AnalysisReport, show_baselined: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = []
    for finding in report.findings:
        if finding.baselined and not show_baselined:
            continue
        lines.append(str(finding))
        if finding.context:
            lines.append(f"    {finding.context}")
    for entry in report.unused_baseline_entries:
        lines.append(
            f"stale baseline entry (matched nothing): {entry.path} "
            f"[{entry.rule}] {entry.context!r} — delete it"
        )
    unbaselined = len(report.unbaselined)
    baselined = len(report.findings) - unbaselined
    lines.append(
        f"{report.files_scanned} file(s) scanned: "
        f"{unbaselined} finding(s), {baselined} baselined"
        + (
            f", {len(report.unused_baseline_entries)} stale baseline entr(y/ies)"
            if report.unused_baseline_entries
            else ""
        )
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report with a stable, versioned schema."""
    by_rule: Dict[str, int] = {}
    for finding in report.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "files_scanned": report.files_scanned,
        "summary": {
            "total": len(report.findings),
            "unbaselined": len(report.unbaselined),
            "baselined": len(report.findings) - len(report.unbaselined),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "by_rule": dict(sorted(by_rule.items())),
        },
        "stale_baseline_entries": [
            {"path": e.path, "rule": e.rule, "context": e.context}
            for e in report.unused_baseline_entries
        ],
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
