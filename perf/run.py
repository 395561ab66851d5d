#!/usr/bin/env python3
"""The repo's host-speed benchmark.

Two ways to run it, both from the root of a checkout:

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` names.  ``--trace 0`` measures
    the end-to-end metrics over three fresh processes (three set-ups, their
    repeats pooled); ``--trace 1`` measures the per-layer metrics in one
    process, half the time untraced and half traced.  The last line of
    standard output is the result object.

``python3 perf/run.py [--seed N]``
    The report: every workload untraced in three round-robin rounds
    (A, B, ... E, then again, so slow drift of the host hits all workloads
    alike), then once traced, then the isolated layer probes.  Prints every
    metric by name with its unit and writes ``perf/results/latest.json`` and
    ``perf/results/trace_<workload>.json``.

Each workload runs in its own process, one at a time, and generates its load
from a single thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
# The script's own directory must not lead sys.path: perf/trace.py would
# shadow the standard library's ``trace``.  The benchmark is the package
# ``perf``; the program under test lives in ``src``.
sys.path = [p for p in sys.path if Path(p or ".").resolve() != PERF]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import harness, metrics  # noqa: E402
from perf.workloads import WHY, WORKLOADS  # noqa: E402

#: fresh processes (set-ups) per untraced measurement.
ROUNDS = 3

#: a child that has not answered by then is killed and the run fails.
CHILD_TIMEOUT = 170.0

DEFAULT_SEED = 11


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    result = harness.run_workload(
        workload, args.seconds, bool(args.trace), args.started_at
    )
    spans = result.pop("trace", None)
    if args.trace_out and spans is not None:
        spans["workload"] = args.workload
        spans["seed"] = args.seed
        Path(args.trace_out).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and return what it measured.

    ``setup_s`` counts from just before the process is created, so
    interpreter start-up and imports are part of set-up.
    """
    command = [
        sys.executable,
        str(PERF / "run.py"),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--started-at", repr(time.time()),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    # A fixed hash seed: string hashing, and with it dict and set layout,
    # is the same in every process, like the inputs.
    done = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise SystemExit(
            f"workload {workload} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Pooling rounds into end-to-end metrics
# ----------------------------------------------------------------------
def pool(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool the repeats of several processes of one workload."""
    samples: Dict[str, List[float]] = {}
    for result in rounds:
        for unit, repeats in result["samples"].items():
            samples.setdefault(unit, []).extend(repeats)
    seconds = harness.workload_seconds(samples)
    medians = [
        sum(statistics.median(r) for r in result["samples"].values())
        for result in rounds
    ]
    spread = [harness.quartiles(repeats) for repeats in samples.values()]
    attempted = sum(result["attempted"] for result in rounds)
    failed = sum(result["failed"] for result in rounds)
    failures = [reason for result in rounds for reason in result["failures"]]
    # The same seed must give the same outcome in every process.
    for key in ("digest", "counts", "virtual"):
        if any(result[key] != rounds[0][key] for result in rounds):
            failed = attempted
            failures.append(f"{key} differs between processes of one seed")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "metrics": {
            "throughput_per_s": rounds[0]["items_per_pass"] / seconds,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
        },
        "detail": {
            "workload_s_best": seconds,
            "workload_s_q25": sum(q[0] for q in spread),
            "workload_s_median": sum(q[1] for q in spread),
            "workload_s_iqr": sum(q[2] - q[0] for q in spread),
            "repeats": sum(len(r) for r in samples.values()),
            # per-round medians, so drift of the host across rounds shows
            "round_median_s": medians,
            "round_setup_s": [r["setup_s"] for r in rounds],
            "items_per_pass": rounds[0]["items_per_pass"],
            "item": rounds[0]["item"],
            "counts": rounds[0]["counts"],
            "virtual": rounds[0]["virtual"],
        },
    }


def report_failures(failures: List[str]) -> None:
    for reason in failures:
        print(f"FAILED: {reason}", file=sys.stderr)


# ----------------------------------------------------------------------
# One workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def workload_main(args: argparse.Namespace) -> int:
    if args.trace:
        result = spawn(args.workload, args.seed, args.seconds, 1)
        values = metrics.as_output(metrics.PER_LAYER, result["per_layer"])
    else:
        result = pool(
            [
                spawn(args.workload, args.seed, args.seconds / ROUNDS, 0)
                for _ in range(ROUNDS)
            ]
        )
        values = metrics.as_output(metrics.END_TO_END, result["metrics"])
    report_failures(result["failures"])
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": values,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# The report: all workloads, traced run, probes
# ----------------------------------------------------------------------
def host_metadata() -> Dict[str, Any]:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def report_main(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS)
    print(f"seed {args.seed} (figures: runner seeds are internal, --seed does not apply)")

    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_index in range(ROUNDS):
        for name in names:
            print(f"round {round_index + 1}/{ROUNDS}: {name}", flush=True)
            rounds[name].append(spawn(name, args.seed, args.seconds / ROUNDS, 0))
    document: Dict[str, Any] = {
        "host": host_metadata(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for name in names:
        print(f"traced: {name}", flush=True)
        traced = spawn(
            name, args.seed, args.seconds, 1, out.parent / f"trace_{name}.json"
        )
        pooled = pool(rounds[name])
        failed += pooled["failed"] + traced["failed"]
        report_failures(pooled["failures"] + traced["failures"])
        document["workloads"][name] = {
            "why": WHY[name],
            "attempted": pooled["attempted"],
            "failed": pooled["failed"],
            "end_to_end": metrics.as_output(metrics.END_TO_END, pooled["metrics"]),
            "detail": pooled["detail"],
            "per_layer": metrics.as_output(metrics.PER_LAYER, traced["per_layer"]),
        }

    print("isolated layer probes", flush=True)
    probes = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--probes"],
        stdout=subprocess.PIPE, text=True, timeout=10 * CHILD_TIMEOUT, cwd=ROOT,
    )
    if probes.returncode != 0:
        raise SystemExit(f"layer probes exited with code {probes.returncode}")
    document["probes"] = json.loads(probes.stdout.strip().splitlines()[-1])

    out.write_text(json.dumps(document, indent=1))
    print_report(document)
    print(f"wrote {out}")
    return 1 if failed else 0


def print_report(document: Dict[str, Any]) -> None:
    host = document["host"]
    print(
        f"\nhost: {host['cpu']}, nproc {host['nproc']}, "
        f"python {host['python']}, numpy {host['numpy']}"
    )
    for name, entry in document["workloads"].items():
        detail = entry["detail"]
        print(f"\n== {name}: {entry['why']}")
        print(
            f"   {detail['items_per_pass']:g} {detail['item']} per pass, "
            f"{detail['repeats']} repeats, workload time best "
            f"{detail['workload_s_best']:.4f} s, q25 "
            f"{detail['workload_s_q25']:.4f} s, median "
            f"{detail['workload_s_median']:.4f} s, iqr "
            f"{detail['workload_s_iqr']:.4f} s; failed "
            f"{entry['failed']} of {entry['attempted']} "
            f"(failed_frac {entry['failed'] / entry['attempted']:.3g})"
        )
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                # A layer that does not run on this workload reads 0.
                if section == "end_to_end" or cell["value"]:
                    print(f"   {metric:40s} {cell['value']:>16.6g} {cell['unit']}")
    print("\n== isolated layer probes (fixed inputs, fastest of 7 repeats)")
    for metric, cell in document["probes"].items():
        if cell["value"] is None:
            print(f"   {metric:48s} {'null':>12s} {cell['unit']}  ({cell['reason']})")
        else:
            print(f"   {metric:48s} {cell['value']:>12.6g} {cell['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(PERF / "results" / "latest.json"),
        help="where the report is written (report mode only)",
    )
    parser.add_argument(
        "--probes", action="store_true",
        help="run only the isolated layer probes and print them as JSON",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probes:
        from perf import layers

        print(json.dumps(layers.measure()))
        return 0
    if args.seconds is None:
        args.seconds = float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    if args.child:
        return child_main(args)
    if args.workload:
        return workload_main(args)
    return report_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
