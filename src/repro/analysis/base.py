"""Pass base class and the per-module AST context a project is built from."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.finding import Finding


class ModuleContext:
    """One parsed module plus the lookup structures passes need."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.posix_path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def line_text(self, lineno: int) -> str:
        """The stripped source line (1-based), used as the baseline key."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class ProjectPass:
    """Base class: an interprocedural pass over a whole :class:`ProjectContext`.

    Subclasses set ``name``, ``description`` and ``scope`` (path
    substrings, POSIX separators) and implement :meth:`check_project`;
    the runner builds one project context per run and invokes every
    pass exactly once.  A pass analyzes every module it needs and
    reports only into the paths its ``scope`` covers (:meth:`run_project`
    filters the rest).  Scoping by substring lets test fixtures opt into
    a pass by mirroring the directory name (``fixtures/exec/x.py`` is in
    scope for a pass scoped to ``exec/``).
    """

    name: str = ""
    description: str = ""
    scope: Tuple[str, ...] = ()

    def in_scope(self, posix_path: str) -> bool:
        if not self.scope:
            return True
        return any(fragment in posix_path for fragment in self.scope)

    def check_project(self, project: "object") -> Sequence[Finding]:
        raise NotImplementedError

    def run_project(self, project: "object") -> List[Finding]:
        """Deduplicated, scope-filtered findings for one project."""
        findings: List[Finding] = []
        seen = set()
        for finding in self.check_project(project):
            if not self.in_scope(finding.path):
                continue
            key = (finding.path, finding.line, finding.message)
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.column))
        return findings

    def finding_at(
        self, path: str, line: int, column: int, message: str, context: str = ""
    ) -> Finding:
        """A finding at a raw location (when only line info is known)."""
        return Finding(
            rule=self.name,
            path=path,
            line=line,
            column=column,
            message=message,
            context=context,
        )
