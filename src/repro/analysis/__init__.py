"""Domain-specific static analysis for the reproduction codebase.

The simulator's fidelity rests on invariants that ordinary linters do
not know about:

* decimal GB/s and binary GiB/s must never be mixed (Figures 1-3 of the
  paper distinguish electrical from measured bandwidths) — raw byte-size
  and bandwidth literals must go through :mod:`repro.utils.units`;
* the discrete-event simulator must stay deterministic — no unseeded
  random sources or wall-clock reads in simulation code paths;
* hot-path operators must stay vectorized — no per-element Python loops
  over numpy arrays;
* every mutation of a shared hash table must route through the batch
  accessors and be priced with ``atomic_stream`` cost accounting
  (Section 6: the Het strategy's shared table relies on system-wide
  atomics);
* lock discipline must hold across module boundaries — attributes a
  class guards with its lock must never be touched without it, and
  lock acquisition order must be cycle-free (``lock-discipline``);
* only the sanctioned layers price phases, build plans, or drive the
  discrete-event simulator (``executor-boundary``).

Two invariants once checked here are now checked at runtime instead,
where a test sees the real behaviour: manifest writers emit exactly the
declared ``MANIFEST_SCHEMA`` keys (``tests/obs/test_manifest_schema.py``)
and every worker loop, allocation site and transfer path reaches its
``repro.faults`` hook (``tests/faults/test_hook_coverage.py``).

The framework has two tiers: per-module passes see one
:class:`ModuleContext`; interprocedural passes see a
:class:`ProjectContext` — all modules of the run, cross-linked into a
symbol table, call graph, and lock-annotated attribute-access graph.
Runs are baselined with a ratchet (``--ratchet``) and runnable as
``python -m repro.analysis <paths>``.
"""

from repro.analysis.base import AnalysisPass, ModuleContext, ProjectPass
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.finding import Finding, Severity
from repro.analysis.passes import ALL_PASSES, get_passes
from repro.analysis.project import ProjectContext
from repro.analysis.reporters import SCHEMA_VERSION, render_json, render_text
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
    "SCHEMA_VERSION",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "get_passes",
    "render_json",
    "render_text",
]
