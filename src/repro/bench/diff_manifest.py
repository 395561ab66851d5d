"""Diff run-manifest phase costs against a committed baseline.

Usage::

    python -m repro.bench.diff_manifest CURRENT BASELINE
    python -m repro.bench.diff_manifest run_manifest.json BENCH_pr2.json

Both files are manifest documents (``write_manifest_file`` output or a
committed ``BENCH_*.json`` baseline); each carries a top-level ``runs``
list.  Runs are matched by ``kind`` and phases by ``label``; for every
matched phase the tool asserts that ``seconds``, the ``bottleneck``
resource, and the full occupancy vector agree within tolerance.  Matched runs also compare their
*populated section sets* (top-level run keys with truthy values): a
section the baseline had but the current document lost is always an
error, while a section the baseline predates (e.g. the schema-1.2
``optimizer`` record) is tolerated under ``--ignore-new-runs``.  CI
runs this after the reduced figure sweep so a refactor that silently
shifts any per-phase cost fails the build.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, Iterator, List, Optional

#: default relative tolerance — generous enough for float-order
#: differences inside one arithmetic refactor, far below any real
#: model change (which moves costs by percents).
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-12


def _load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    runs = document.get("runs")
    if not isinstance(runs, list):
        raise ValueError(f"{path}: no top-level 'runs' list")
    return runs


def _runs_by_kind(runs: List[Dict[str, Any]], path: str) -> Dict[str, Dict[str, Any]]:
    by_kind: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        kind = run.get("kind", "")
        if kind in by_kind:
            raise ValueError(f"{path}: duplicate run kind {kind!r}")
        by_kind[kind] = run
    return by_kind


def _phases_by_label(run: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    phases: Dict[str, Dict[str, Any]] = {}
    for phase in run.get("phases", []):
        phases[phase.get("label", "")] = phase
    return phases


def _populated_sections(run: Dict[str, Any]) -> set:
    """Top-level run keys carrying a truthy value.

    Optional sections (``resilience``, ``optimizer``) are serialized as
    ``null`` when unused, so presence-of-key alone would make every old
    baseline look incomplete; only a *populated* section counts.
    """
    return {key for key, value in run.items() if value}


def _close(a: float, b: float, rel_tol: float, abs_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def iter_differences(
    current: List[Dict[str, Any]],
    baseline: List[Dict[str, Any]],
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    allow_new_runs: bool = False,
) -> Iterator[str]:
    """Yield one human-readable line per phase-cost mismatch.

    ``allow_new_runs`` tolerates additions the baseline predates — both
    whole run kinds absent from the baseline *and* new populated
    sections inside a matched run (a newer schema adding e.g. an
    ``optimizer`` record to a run the baseline already had).  Every
    kind and section the baseline *does* have is still matched exactly:
    a lost section is an error regardless of the flag.
    """
    current_by_kind = _runs_by_kind(current, "current")
    baseline_by_kind = _runs_by_kind(baseline, "baseline")
    for kind in sorted(set(current_by_kind) | set(baseline_by_kind)):
        if kind not in current_by_kind:
            yield f"run {kind!r}: missing from current manifest"
            continue
        if kind not in baseline_by_kind:
            if not allow_new_runs:
                yield f"run {kind!r}: not in baseline (new run kind)"
            continue
        base_sections = _populated_sections(baseline_by_kind[kind])
        cur_sections = _populated_sections(current_by_kind[kind])
        for section in sorted(base_sections - cur_sections):
            yield f"run {kind!r}: section {section!r} lost vs baseline"
        for section in sorted(cur_sections - base_sections):
            if not allow_new_runs:
                yield (
                    f"run {kind!r}: section {section!r} not in baseline "
                    f"(new section)"
                )
        want = _phases_by_label(baseline_by_kind[kind])
        got = _phases_by_label(current_by_kind[kind])
        for label in sorted(set(want) | set(got)):
            prefix = f"run {kind!r} phase {label!r}"
            if label not in got:
                yield f"{prefix}: missing from current manifest"
                continue
            if label not in want:
                yield f"{prefix}: not in baseline (new phase)"
                continue
            w, g = want[label], got[label]
            if not _close(g["seconds"], w["seconds"], rel_tol, abs_tol):
                yield (
                    f"{prefix}: seconds {g['seconds']!r} != baseline "
                    f"{w['seconds']!r}"
                )
            if g["bottleneck"] != w["bottleneck"]:
                yield (
                    f"{prefix}: bottleneck {g['bottleneck']!r} != baseline "
                    f"{w['bottleneck']!r}"
                )
            w_occ = w.get("occupancy", {})
            g_occ = g.get("occupancy", {})
            for resource in sorted(set(w_occ) | set(g_occ)):
                if resource not in g_occ:
                    yield f"{prefix}: occupancy lost resource {resource!r}"
                elif resource not in w_occ:
                    yield f"{prefix}: occupancy gained resource {resource!r}"
                elif not _close(
                    g_occ[resource], w_occ[resource], rel_tol, abs_tol
                ):
                    yield (
                        f"{prefix}: occupancy[{resource}] "
                        f"{g_occ[resource]!r} != baseline {w_occ[resource]!r}"
                    )


def diff_files(
    current_path: str,
    baseline_path: str,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    allow_new_runs: bool = False,
) -> List[str]:
    """All phase-cost differences between two manifest files."""
    return list(
        iter_differences(
            _load_runs(current_path),
            _load_runs(baseline_path),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            allow_new_runs=allow_new_runs,
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly generated manifest file")
    parser.add_argument("baseline", help="committed baseline (e.g. BENCH_pr2.json)")
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    parser.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    parser.add_argument(
        "--ignore-new-runs",
        action="store_true",
        help="tolerate run kinds and per-run sections the baseline "
        "predates (e.g. diffing a PR-8 document, whose runs carry an "
        "'optimizer' section, against the PR-4 baseline)",
    )
    args = parser.parse_args(argv)
    differences = diff_files(
        args.current,
        args.baseline,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        allow_new_runs=args.ignore_new_runs,
    )
    if differences:
        print(f"{len(differences)} phase-cost difference(s) vs baseline:")
        for line in differences:
            print(f"  {line}")
        return 1
    print(
        f"per-phase costs match {args.baseline} "
        f"(rel_tol={args.rel_tol}, abs_tol={args.abs_tol})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
