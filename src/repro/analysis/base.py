"""Pass base class and the per-module AST context passes operate on."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.finding import Finding, Severity

#: Names exported by :mod:`repro.utils.units`; an expression that
#: references one of these is considered unit-annotated.
UNITS_NAMES: Set[str] = {
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "KB",
    "MB",
    "GB",
    "NS",
    "US",
    "MS",
    "SECOND",
    "gib_per_s",
    "gb_per_s",
}

#: Expression nodes we ascend through when looking for the arithmetic
#: chain a literal participates in (e.g. ``434 * NS``).
_CHAIN_NODES = (ast.BinOp, ast.UnaryOp)


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

    # -- navigation ----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def line_text(self, lineno: int) -> str:
        """The stripped source line (1-based), used as the baseline key."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- naming context ------------------------------------------------
    def context_names(self, node: ast.AST) -> List[str]:
        """Names that give a literal meaning, nearest first.

        Collected while ascending: keyword-argument names, assignment
        targets (plain or annotated, including attribute targets), and
        enclosing function names.  ``clock_hz=3.3e9`` yields
        ``["clock_hz", ...]``; a dict literal inside a dataclass field
        default yields the field name.
        """
        names: List[str] = []
        child = node
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.keyword) and ancestor.arg:
                names.append(ancestor.arg)
            elif isinstance(ancestor, ast.arguments):
                param = _default_param_name(ancestor, child)
                if param is not None:
                    names.append(param)
            elif isinstance(ancestor, ast.Assign):
                for target in ancestor.targets:
                    names.extend(_target_names(target))
            elif isinstance(ancestor, ast.AnnAssign):
                names.extend(_target_names(ancestor.target))
            elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(ancestor.name)
            child = ancestor
        return names

    def nearest_name(self, node: ast.AST) -> Optional[str]:
        names = self.context_names(node)
        return names[0] if names else None

    # -- unit detection ------------------------------------------------
    def arithmetic_chain(self, node: ast.AST) -> ast.AST:
        """The outermost arithmetic expression ``node`` is part of."""
        current = node
        parent = self._parents.get(current)
        while isinstance(parent, _CHAIN_NODES):
            current = parent
            parent = self._parents.get(current)
        return current

    def referenced_names(self, node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        return names

    def chain_uses_units(self, node: ast.AST) -> bool:
        """True if the literal's arithmetic chain references a unit name."""
        chain = self.arithmetic_chain(node)
        return bool(self.referenced_names(chain) & UNITS_NAMES)

    def module_references(self, name: str) -> bool:
        """True if the module mentions ``name`` anywhere (import or use)."""
        for sub in ast.walk(self.tree):
            if isinstance(sub, ast.Name) and sub.id == name:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == name:
                return True
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    if name in (alias.name, alias.asname):
                        return True
        return False


class AnalysisPass:
    """Base class: a named rule set scoped to parts of the source tree.

    Subclasses set ``name``, ``description``, ``severity``, and
    ``scope`` (path substrings, POSIX separators) and implement
    :meth:`check`.  Scoping by substring lets test fixtures opt into a
    pass by mirroring the directory name (``fixtures/costmodel/x.py``
    is in scope for a pass scoped to ``costmodel/``).
    """

    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    scope: Tuple[str, ...] = ()

    def in_scope(self, posix_path: str) -> bool:
        if not self.scope:
            return True
        return any(fragment in posix_path for fragment in self.scope)

    def run(self, ctx: ModuleContext) -> List[Finding]:
        if not self.in_scope(ctx.posix_path):
            return []
        findings: List[Finding] = []
        seen = set()
        for finding in self.check(ctx):
            key = (finding.line, finding.message)
            if key in seen:
                continue  # e.g. two literals of one expression, same diagnosis
            seen.add(key)
            findings.append(finding)
        return findings

    def check(self, ctx: ModuleContext) -> Sequence[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=ctx.posix_path,
            line=line,
            column=column,
            message=message,
            context=ctx.line_text(line),
        )


class ProjectPass(AnalysisPass):
    """An interprocedural pass over a whole :class:`ProjectContext`.

    Subclasses implement :meth:`check_project` instead of
    :meth:`check`; the runner builds one project context per run and
    invokes every project pass exactly once.  Scoping still applies,
    but *per finding* — a project pass analyzes every module it needs
    and reports only into the paths its ``scope`` covers
    (:meth:`run_project` filters the rest).
    """

    def run(self, ctx: ModuleContext) -> List[Finding]:
        return []  # project passes never run per-module

    def check(self, ctx: ModuleContext) -> Sequence[Finding]:
        return []

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
        self,
        path: str,
        line: int,
        column: int,
        message: str,
        context: str = "",
        severity: Optional[Severity] = None,
    ) -> Finding:
        """A finding at a raw location (when only line info is known)."""
        return Finding(
            rule=self.name,
            severity=severity if severity is not None else self.severity,
            path=path,
            line=line,
            column=column,
            message=message,
            context=context,
        )


def _default_param_name(args: ast.arguments, default: ast.AST) -> Optional[str]:
    """Name of the parameter a default expression belongs to."""
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    for arg, value in zip(positional[len(positional) - len(args.defaults):],
                          args.defaults):
        if value is default:
            return arg.arg
    for arg, value in zip(args.kwonlyargs, args.kw_defaults):
        if value is default:
            return arg.arg
    return None


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Attribute):
        return [target.attr]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))
