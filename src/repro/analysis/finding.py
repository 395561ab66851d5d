"""The finding model shared by the analysis passes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Finding:
    """One rule violation at one source location; unless baselined it
    fails the tier-1 scan.

    ``context`` is the stripped source line the finding points at; the
    baseline matches on (path, rule, context) so suppressions survive
    unrelated edits that shift line numbers.
    """

    rule: str
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

    def __str__(self) -> str:
        mark = " (baselined)" if self.baselined else ""
        return f"{self.location}: [{self.rule}] {self.message}{mark}"
