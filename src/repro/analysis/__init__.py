"""Domain-specific static analysis for the reproduction codebase.

One property of the simulator is structural, interprocedural and
invisible to ordinary linters: lock discipline holds across module
boundaries — attributes a class guards with its lock are never touched
without it, and lock acquisition order is cycle-free
(``lock-discipline``).

The one way to run the pass is the tier-1 test
``tests/analysis/test_repo_clean.py``: it scans ``src/``, applies
``analysis-baseline.json`` and fails on any unbaselined finding or
stale baseline entry.  Layering rules ("only X may call Y") are plain
AST walks in ``tests/test_architecture.py``; invariants a runtime test
observes directly — units, seeded generators, manifest keys,
fault-hook coverage — are checked by those tests instead
(``docs/static_analysis.md``).

A pass is a :class:`ProjectPass`: it sees one :class:`ProjectContext`
— all modules of the run, cross-linked into a symbol table, call
graph, and lock-annotated attribute-access graph.
"""

from repro.analysis.base import ModuleContext, ProjectPass
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.finding import Finding
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import ProjectContext
from repro.analysis.runner import AnalysisReport, analyze_paths, analyze_source

__all__ = [
    "ALL_PASSES",
    "AnalysisReport",
    "Baseline",
    "BaselineError",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "ProjectPass",
    "analyze_paths",
    "analyze_source",
]
