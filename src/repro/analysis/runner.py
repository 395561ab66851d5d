"""File discovery and pass orchestration.

Orchestration has two layers:

* **discovery** — walk the given paths for ``.py`` files, pruning
  cache/VCS directories, and parse each file once into a
  :class:`~repro.analysis.base.ModuleContext`;
* **passes** — build one
  :class:`~repro.analysis.project.ProjectContext` over every parsed
  module and run each pass exactly once per run.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.analysis.base import ModuleContext, ProjectPass
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.finding import Finding
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import ProjectContext

#: Directory names never worth scanning (caches, VCS, environments).
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".mypy_cache",
    ".ruff_cache",
    ".venv",
    "venv",
    "node_modules",
}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    unused_baseline_entries: List[BaselineEntry] = field(default_factory=list)

    @property
    def unbaselined(self) -> List[Finding]:
        return [f for f in self.findings if not f.baselined]


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield .py files under the given files/directories, sorted."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="syntax-error",
        path=path,
        line=exc.lineno or 1,
        column=(exc.offset or 0) + 1,
        message=f"file does not parse: {exc.msg}",
    )


def analyze_source(
    source: str,
    path: str = "<string>",
    passes: Optional[Sequence[ProjectPass]] = None,
) -> List[Finding]:
    """Run passes over one in-memory module (test/fixture entry point).

    Passes see a single-module project: calls into other modules stay
    unresolved, which is what single-file fixtures exercise.
    """
    active = list(ALL_PASSES) if passes is None else list(passes)
    posix = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_syntax_error_finding(posix, exc)]
    return _run_passes(active, [ModuleContext(posix, source, tree)])


def _run_passes(
    active: Sequence[ProjectPass],
    contexts: List[ModuleContext],
    roots: Sequence[str] = (),
) -> List[Finding]:
    """Every pass once over one project built from all modules."""
    project = ProjectContext.build(contexts, roots)
    return [
        finding
        for analysis_pass in active
        for finding in analysis_pass.run_project(project)
    ]


def analyze_paths(
    paths: Sequence[str],
    passes: Optional[Sequence[ProjectPass]] = None,
    baseline: Optional[Baseline] = None,
) -> AnalysisReport:
    """Analyze files/trees, apply the baseline, and build a report."""
    active = list(ALL_PASSES) if passes is None else list(passes)
    files = [_posix(f) for f in iter_python_files(paths)]
    roots = sorted(
        (_posix(p).rstrip("/") for p in paths if os.path.isdir(p)),
        key=len,
        reverse=True,
    )
    report = AnalysisReport(files_scanned=len(files))
    contexts: List[ModuleContext] = []
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=file_path)
        except SyntaxError as exc:
            report.findings.append(_syntax_error_finding(file_path, exc))
            continue
        contexts.append(ModuleContext(file_path, source, tree))
    report.findings.extend(_run_passes(active, contexts, roots))
    report.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))

    if baseline is not None:
        baseline.apply(report.findings)
        report.unused_baseline_entries = baseline.unused_entries()
    return report
