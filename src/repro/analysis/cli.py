"""Command-line entry point: ``python -m repro.analysis <paths>``.

Exit codes are severity-aware:

* ``0`` — clean: no unbaselined findings, no stale baseline entries,
  ratchet (if requested) holds;
* ``1`` — unbaselined ERROR findings, stale baseline entries, a
  ratchet violation, or (with ``--strict``) unbaselined warnings;
* ``2`` — usage or baseline error;
* ``3`` — unbaselined WARNING findings only (without ``--strict``) —
  distinguishable from hard failures so CI can choose to tolerate it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineError,
)
from repro.analysis.passes import ALL_PASSES, get_passes
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import AnalysisReport, analyze_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Domain-specific static analysis: unit-safety, determinism, "
            "vectorization, simulated-coherence, executor-boundary, and "
            "the interprocedural lock-discipline rule for the "
            "reproduction codebase."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to scan")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file of accepted findings (default: "
            f"{DEFAULT_BASELINE_NAME} found in the current directory or an "
            "ancestor of the first path)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--rules",
        metavar="NAME[,NAME...]",
        help="comma-separated subset of rules to run",
    )
    parser.add_argument(
        "--exclude",
        metavar="GLOB",
        action="append",
        default=[],
        help=(
            "glob of paths to skip (repeatable); matches the full posix "
            "path, the basename, or any path suffix"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat unbaselined warnings as failures (exit 1, not 3)",
    )
    parser.add_argument(
        "--ratchet",
        action="store_true",
        help=(
            "enforce the baseline ratchet: fail if the baseline has "
            "more entries than its ratchet_limit (new debt) or fewer "
            "(lower the limit to lock in the win)"
        ),
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="include baselined findings in text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rules and exit",
    )
    return parser


def find_default_baseline(paths: Sequence[str]) -> Optional[str]:
    """Look for the baseline next to CWD or above the first target path."""
    candidates: List[str] = [os.getcwd()]
    if paths:
        current = os.path.dirname(os.path.abspath(paths[0]))
        while True:
            candidates.append(current)
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    for directory in candidates:
        candidate = os.path.join(directory, DEFAULT_BASELINE_NAME)
        if os.path.isfile(candidate):
            return candidate
    return None


def exit_code(
    report: AnalysisReport,
    strict: bool = False,
    ratchet_failure: Optional[str] = None,
) -> int:
    """Severity-aware exit code for one finished run."""
    if report.errors or report.unused_baseline_entries or ratchet_failure:
        return 1
    if report.warnings:
        return 1 if strict else 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for analysis_pass in ALL_PASSES:
            print(f"{analysis_pass.name}: {analysis_pass.description}")
            print(f"    scope: {', '.join(analysis_pass.scope)}")
        return 0

    if not args.paths:
        parser.error("at least one path is required (or use --list-rules)")

    try:
        passes = get_passes(args.rules.split(",") if args.rules else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline = None
    if not args.no_baseline:
        baseline_path = args.baseline or find_default_baseline(args.paths)
        if args.baseline and not os.path.isfile(args.baseline):
            print(f"error: baseline not found: {args.baseline}", file=sys.stderr)
            return 2
        if baseline_path:
            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    if args.ratchet and baseline is None:
        print(
            "error: --ratchet requires a baseline file "
            "(none found and --no-baseline disables it)",
            file=sys.stderr,
        )
        return 2

    try:
        report = analyze_paths(
            args.paths,
            passes=passes,
            baseline=baseline,
            exclude=args.exclude,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ratchet_failure = None
    if args.ratchet and baseline is not None:
        ratchet_failure = baseline.ratchet_violation()

    if args.format == "json":
        print(render_json(report))
    else:
        output = render_text(report, show_baselined=args.show_baselined)
        if output:
            print(output)
    if ratchet_failure:
        print(f"ratchet violation: {ratchet_failure}", file=sys.stderr)
    return exit_code(report, strict=args.strict, ratchet_failure=ratchet_failure)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
