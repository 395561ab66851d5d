"""The finding/severity model shared by all analysis passes."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional


class Severity(enum.Enum):
    """How bad a finding is; any unbaselined finding fails the run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass
class Finding:
    """One rule violation at one source location.

    ``context`` is the stripped source line the finding points at; the
    baseline matches on (path, rule, context) so suppressions survive
    unrelated edits that shift line numbers.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    context: str = ""
    baselined: bool = False
    suppression_reason: Optional[str] = None

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    @property
    def id(self) -> str:
        """Stable finding identity, independent of line numbers.

        Hashes ``(rule, path, context, message)`` so the id survives
        unrelated edits that shift the finding's line, but changes when
        the diagnosed code or diagnosis changes.  Used by tooling to
        track findings across runs.
        """
        payload = "|".join((self.rule, self.path, self.context, self.message))
        return hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """Stable serialization consumed by the JSON reporter."""
        return {
            "id": self.id,
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "context": self.context,
            "baselined": self.baselined,
            "suppression_reason": self.suppression_reason,
        }

    def __str__(self) -> str:
        mark = " (baselined)" if self.baselined else ""
        return f"{self.location}: {self.severity} [{self.rule}] {self.message}{mark}"
