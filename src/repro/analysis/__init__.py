"""Domain-specific static analysis for the reproduction codebase.

Two boundaries of the simulator are structural and invisible to
ordinary linters:

* only the sanctioned layers price phases, build plans, or drive the
  discrete-event simulator (``executor-boundary``);
* lock discipline holds across module boundaries — attributes a class
  guards with its lock are never touched without it, and lock
  acquisition order is cycle-free (``lock-discipline``).

The one way to run the rules is the tier-1 test
``tests/analysis/test_repo_clean.py``: it scans ``src/``, applies
``analysis-baseline.json`` and fails on any unbaselined finding or
stale baseline entry.  Invariants a runtime test observes directly —
units, seeded generators, manifest keys, fault-hook coverage — are
checked by those tests instead (``docs/static_analysis.md``).

The framework has two tiers: per-module passes see one
:class:`ModuleContext`; interprocedural passes see a
:class:`ProjectContext` — all modules of the run, cross-linked into a
symbol table, call graph, and lock-annotated attribute-access graph.
"""

from repro.analysis.base import AnalysisPass, ModuleContext, ProjectPass
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.finding import Finding
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import ProjectContext
from repro.analysis.runner import AnalysisReport, analyze_paths, analyze_source

__all__ = [
    "ALL_PASSES",
    "AnalysisPass",
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
