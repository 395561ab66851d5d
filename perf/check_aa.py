#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same code agree?

Runs the report (``python3 perf/run.py``) twice with the default seed and
once with the next seed, then prints, per workload and metric, the relative
difference of the two same-seed runs beside the metric's bound.  Exits
non-zero when

* ``throughput_per_s`` or ``peak_rss_mb`` differs by more than its bound
  (``setup_s`` is printed, not gated: one run holds three set-ups of a few
  seconds each, and on a shared host their median moves by more than any
  usable bound; the driver compares medians of ten runs),
* an exact metric (virtual time, accuracy, counts: ``exact`` in
  ``perf/metrics.py``) differs at all between the same-seed runs,
* any run fails an output check, or
* the other seed leaves the ``serve_*`` virtual latencies unchanged (the
  seed would not be reaching the inputs).

``python3 perf/check_aa.py > perf/results/aa_reference.txt`` produced the
committed reference for the reference host.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

PERF = Path(__file__).resolve().parent
sys.path = [p for p in sys.path if Path(p or ".").resolve() != PERF]
sys.path[:0] = [str(PERF.parent)]

from perf import metrics  # noqa: E402
from perf.run import DEFAULT_SEED  # noqa: E402


def report(seed: int, out: Path) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--seed", str(seed), "--out", str(out)],
        stdout=subprocess.DEVNULL,
    )
    document = json.loads(out.read_text())
    document["exit_code"] = done.returncode
    return document


def relative(a: float, b: float) -> float:
    return abs(a - b) / abs(a) if a else abs(b)


def main() -> int:
    problems: List[str] = []
    with tempfile.TemporaryDirectory(dir=PERF / "results") as scratch:
        first = report(DEFAULT_SEED, Path(scratch) / "a1.json")
        second = report(DEFAULT_SEED, Path(scratch) / "a2.json")
        other = report(DEFAULT_SEED + 1, Path(scratch) / "b.json")

    host = first["host"]
    print(
        f"host: nproc {host['nproc']}, {host['cpu']}, python {host['python']}, "
        f"numpy {host['numpy']}, {host['platform']}"
    )
    print(f"seeds: {DEFAULT_SEED}, {DEFAULT_SEED} again, {DEFAULT_SEED + 1}\n")
    for label, document in (("run 1", first), ("run 2", second), ("other seed", other)):
        if document["exit_code"] != 0:
            problems.append(f"{label}: an output check failed")

    print(f"{'workload':15s} {'metric':40s} {'run 1':>14s} {'run 2':>14s} {'rel diff':>10s} {'bound':>8s}")
    for name, entry in first["workloads"].items():
        again = second["workloads"][name]
        for metric in metrics.END_TO_END:
            a = entry["end_to_end"][metric.name]["value"]
            b = again["end_to_end"][metric.name]["value"]
            diff = relative(a, b)
            gated = metric.name != "setup_s"
            verdict = "  EXCEEDS" if gated and diff > metric.bound else ""
            print(
                f"{name:15s} {metric.name:40s} {a:14.6g} {b:14.6g} "
                f"{diff:10.4f} {metric.bound:8.2f}{verdict}"
            )
            if verdict:
                problems.append(f"{name} {metric.name}: {diff:.4f} > {metric.bound}")
        for metric in metrics.PER_LAYER:
            a = entry["per_layer"][metric.name]["value"]
            b = again["per_layer"][metric.name]["value"]
            if not (a or b):
                continue  # the layer does not run on this workload
            if metric.exact:
                verdict = "" if a == b else "  DIFFERS"
                print(
                    f"{name:15s} {metric.name:40s} {a:14.6g} {b:14.6g} "
                    f"{'exact':>10s} {'0':>8s}{verdict}"
                )
                if verdict:
                    problems.append(f"{name} {metric.name}: {a!r} != {b!r}")
            else:
                print(
                    f"{name:15s} {metric.name:40s} {a:14.6g} {b:14.6g} "
                    f"{relative(a, b):10.4f} {'-':>8s}"
                )

    print("\nisolated layer probes (no bound; null = target not available)")
    for name, cell in first["probes"].items():
        a, b = cell["value"], second["probes"][name]["value"]
        if a is None or b is None:
            print(f"{'probe':15s} {name:40s} {'null':>14s}")
        else:
            print(f"{'probe':15s} {name:40s} {a:14.6g} {b:14.6g} {relative(a, b):10.4f}")

    print("\nother seed: serve_* virtual metrics must move, checks must hold")
    for name in ("serve_steady", "serve_overload"):
        for metric in ("virt_p50_latency_s", "virt_p99_latency_s"):
            a = first["workloads"][name]["per_layer"][metric]["value"]
            b = other["workloads"][name]["per_layer"][metric]["value"]
            print(f"{name:15s} {metric:40s} {a:14.6g} {b:14.6g}")
        latencies = [
            document["workloads"][name]["per_layer"]["virt_p50_latency_s"]["value"]
            for document in (first, other)
        ]
        if latencies[0] == latencies[1]:
            problems.append(f"{name}: the seed does not change the virtual latency")

    print()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("A/A check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
