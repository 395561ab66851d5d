"""Committed virtual-time baselines: one registry, one format, one diff.

Every bench whose priced output is deterministic has one entry in
:data:`BASELINES`: a zero-argument producer returning that bench's runs
in its ``--quick`` configuration.  ``baselines/<name>.json`` holds, per
run, only what is compared:

* ``kind`` — runs are matched by it, and each kind lives in one file;
* ``sections`` — the sorted names of the run's populated top-level keys;
* ``phases`` — ``label``, ``seconds``, ``bottleneck``, ``occupancy``;
* ``results``.

:func:`iter_differences` compares floats within :data:`REL_TOL` /
:data:`ABS_TOL` and everything else exactly.  The tier-1 test
``tests/bench/test_baselines.py`` diffs a fresh run of every producer
against its committed file.

Usage::

    python -m repro.bench.baselines     # rewrite every file in baselines/

A change that moves a virtual-time number reruns this command and
commits the new files; ``git diff baselines/`` shows what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.bench import (
    chaos_overhead,
    optimizer_gap,
    parallel_scaling,
    serving_latency,
    serving_resilience,
)
from repro.obs.manifest import RunManifest
from repro.obs.report import reference_manifests

#: relative tolerance of float comparisons — generous enough for
#: float-order differences inside one arithmetic refactor, far below
#: any real model change (which moves costs by percents).
REL_TOL = 1e-6
ABS_TOL = 1e-12

#: the committed files, one per registry entry.
BASELINES_DIR = Path(__file__).resolve().parents[3] / "baselines"

#: the per-phase fields a baseline stores.
PHASE_FIELDS = ("label", "seconds", "bottleneck", "occupancy")

Run = Dict[str, Any]


def _reference_joins() -> List[RunManifest]:
    """NOPA over coherence + Het on the IBM machine, silenced."""
    with contextlib.redirect_stdout(io.StringIO()):
        return reference_manifests()


#: bench name -> zero-argument producer of its deterministic runs.
BASELINES: Dict[str, Callable[[], Iterable[Any]]] = {
    "reference_joins": _reference_joins,
    "parallel_scaling": parallel_scaling.priced_runs,
    "chaos_overhead": lambda: chaos_overhead.chaos_runs(quick=True)[0],
    "optimizer_gap": optimizer_gap.run_scenarios,
    "serving_latency": lambda: serving_latency.run_benchmark(
        serving_latency.QUICK_QUERIES
    )[2],
    "serving_resilience": lambda: serving_resilience.run_benchmark(
        quick=True
    )[1],
}


def record(run: Any) -> Run:
    """The compared fields of one run (a manifest or a run dict)."""
    if isinstance(run, RunManifest):
        run = run.to_dict()
    return {
        "kind": run["kind"],
        "sections": sorted(
            key for key, value in run.items() if value and key != "kind"
        ),
        "phases": [
            {field: phase[field] for field in PHASE_FIELDS}
            for phase in run.get("phases", [])
        ],
        "results": run.get("results", {}),
    }


def records(runs: Iterable[Any]) -> List[Run]:
    """:func:`record` of every run, as it reads back from JSON."""
    return json.loads(json.dumps([record(run) for run in runs]))


def path_of(name: str, directory: Path = BASELINES_DIR) -> Path:
    return directory / f"{name}.json"


def load(path: Path) -> List[Run]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def refresh(directory: Path = BASELINES_DIR) -> List[Path]:
    """Rerun every producer and rewrite its file; return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, producer in BASELINES.items():
        path = path_of(name, directory)
        document = {"runs": records(producer())}
        path.write_text(json.dumps(document, indent=2) + "\n")
        paths.append(path)
    return paths


def _by_key(items: List[Run], key: str, where: str) -> Dict[str, Run]:
    keyed: Dict[str, Run] = {}
    for item in items:
        if item[key] in keyed:
            raise ValueError(f"{where}: duplicate {key} {item[key]!r}")
        keyed[item[key]] = item
    return keyed


def _value_differences(field: str, got: Any, want: Any) -> Iterator[str]:
    """Floats within tolerance, dicts by key, lists by index, rest exact."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            name = f"{field}.{key}"
            if key not in got:
                yield f"{name}: missing from the fresh run"
            elif key not in want:
                yield f"{name}: not in baseline"
            else:
                yield from _value_differences(name, got[key], want[key])
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for index, (g, w) in enumerate(zip(got, want)):
            yield from _value_differences(f"{field}[{index}]", g, w)
    elif isinstance(got, float) and isinstance(want, float):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            yield f"{field}: {got!r} != baseline {want!r}"
    elif type(got) is not type(want) or got != want:
        yield f"{field}: {got!r} != baseline {want!r}"


def iter_differences(current: List[Run], baseline: List[Run]) -> Iterator[str]:
    """Yield one line per difference between two lists of :func:`record`\\ s.

    Runs are matched by ``kind`` and phases by ``label``; each line
    names the run kind and the field.
    """
    got_runs = _by_key(current, "kind", "fresh run")
    want_runs = _by_key(baseline, "kind", "baseline")
    for kind in sorted(set(got_runs) | set(want_runs)):
        prefix = f"run {kind!r}"
        if kind not in got_runs:
            yield f"{prefix}: missing from the fresh run"
            continue
        if kind not in want_runs:
            yield f"{prefix}: not in baseline (new run kind)"
            continue
        got, want = got_runs[kind], want_runs[kind]
        for section in sorted(set(got["sections"]) ^ set(want["sections"])):
            state = (
                "lost vs baseline"
                if section in want["sections"]
                else "not in baseline (new section)"
            )
            yield f"{prefix}: section {section!r} {state}"
        yield from _value_differences(
            f"{prefix} phases",
            _by_key(got["phases"], "label", f"{prefix} fresh phases"),
            _by_key(want["phases"], "label", f"{prefix} baseline phases"),
        )
        yield from _value_differences(
            f"{prefix} results", got["results"], want["results"]
        )


def check(name: str, current: List[Run]) -> List[str]:
    """Every difference of ``current`` from one committed file, naming it."""
    path = path_of(name)
    baseline = load(path)
    return [f"{path.name}: {line}" for line in iter_differences(current, baseline)]


def main(argv: Optional[List[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for path in refresh():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
