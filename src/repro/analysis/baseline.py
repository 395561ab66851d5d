"""Per-file baseline suppression for accepted findings.

A baseline entry acknowledges one existing finding without fixing it.
Entries match on ``(path, rule, context)`` — the stripped source line —
so they survive unrelated edits that move line numbers, and every entry
must carry a one-line justification (``reason``).  Unused entries are
reported so the baseline cannot rot.

File format (JSON, kept at the repository root as
``analysis-baseline.json``)::

    {
      "version": 1,
      "suppressions": [
        {
          "path": "src/repro/faults/runtime.py",
          "rule": "lock-discipline",
          "context": "return _active",
          "reason": "why this is acceptable",
          "count": 1
        }
      ]
    }

An entry's ``path`` matches a finding's path when the two are equal or
the finding's path ends in ``/`` + ``path``: ``faults/runtime.py``
covers ``src/repro/faults/runtime.py`` but not
``src/repro/myfaults/runtime.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.finding import Finding

BASELINE_VERSION = 1


class BaselineError(ValueError):
    """Raised for malformed baseline files (bad schema, missing reason)."""


@dataclass
class BaselineEntry:
    """One accepted finding; suppresses up to ``count`` matches."""

    path: str
    rule: str
    context: str
    reason: str
    count: int = 1
    used: int = field(default=0, compare=False)

    def matches(self, finding: Finding) -> bool:
        if self.used >= self.count:
            return False
        if finding.rule != self.rule:
            return False
        if finding.context != self.context:
            return False
        return finding.path == self.path or finding.path.endswith(
            "/" + self.path
        )


@dataclass
class Baseline:
    """A loaded set of suppressions, applied to a finding list."""

    entries: List[BaselineEntry] = field(default_factory=list)
    source: str = "<memory>"

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise BaselineError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload, source=path)

    @classmethod
    def from_dict(cls, payload: object, source: str = "<memory>") -> "Baseline":
        if not isinstance(payload, dict):
            raise BaselineError(f"{source}: baseline must be a JSON object")
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise BaselineError(
                f"{source}: unsupported baseline version {version!r} "
                f"(expected {BASELINE_VERSION})"
            )
        raw_entries = payload.get("suppressions", [])
        if not isinstance(raw_entries, list):
            raise BaselineError(f"{source}: 'suppressions' must be a list")
        unknown = set(payload) - {"version", "suppressions"}
        if unknown:
            raise BaselineError(
                f"{source}: unknown field(s): {', '.join(sorted(unknown))}"
            )
        entries: List[BaselineEntry] = []
        for index, raw in enumerate(raw_entries):
            entries.append(_parse_entry(raw, index, source))
        return cls(entries=entries, source=source)

    def apply(self, findings: Sequence[Finding]) -> None:
        """Mark findings covered by an entry as baselined (in place)."""
        for finding in findings:
            for entry in self.entries:
                if entry.matches(finding):
                    entry.used += 1
                    finding.baselined = True
                    finding.suppression_reason = entry.reason
                    break

    def unused_entries(self) -> List[BaselineEntry]:
        """Entries that matched nothing — stale, a hard failure."""
        return [entry for entry in self.entries if entry.used == 0]


def _parse_entry(raw: object, index: int, source: str) -> BaselineEntry:
    where = f"{source}: suppressions[{index}]"
    if not isinstance(raw, dict):
        raise BaselineError(f"{where}: entry must be an object")
    required = ("path", "rule", "context", "reason")
    missing = [key for key in required if not raw.get(key)]
    if missing:
        raise BaselineError(
            f"{where}: missing or empty field(s): {', '.join(missing)} "
            "(every suppression needs a one-line justification)"
        )
    fields: Dict[str, object] = {key: raw[key] for key in required}
    for key, value in fields.items():
        if not isinstance(value, str):
            raise BaselineError(f"{where}: {key} must be a string")
    count = raw.get("count", 1)
    if not isinstance(count, int) or count < 1:
        raise BaselineError(f"{where}: count must be a positive integer")
    unknown = set(raw) - set(required) - {"count"}
    if unknown:
        raise BaselineError(
            f"{where}: unknown field(s): {', '.join(sorted(unknown))}"
        )
    return BaselineEntry(
        path=str(raw["path"]),
        rule=str(raw["rule"]),
        context=str(raw["context"]),
        reason=str(raw["reason"]),
        count=count,
    )
