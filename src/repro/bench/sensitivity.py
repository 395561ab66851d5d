"""Calibration sensitivity analysis.

Perturbs each fitted calibration constant by ±20% and measures how much
the headline reproduction anchors move.  This quantifies the claim in
docs/calibration.md that the reproduced *shapes* are robust to modest
recalibration — and identifies the stiff constants (the ones a user
must re-fit first when porting the model to different hardware).

Anchors used (cheap to evaluate, covering distinct regimes):

* Figure 12 / Coherence on NVLink (interconnect-bound probe),
* Figure 18 / 1:1 build share (atomic-bound build),
* Figure 14 / workload A with a CPU-resident table (random-bound probe),
* Figure 21 / CPU-only workload A (CPU-side model).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.bench.common import Claim, FigureResult, Series, price_series, throughputs
from repro.core.join.nopa import NoPartitioningJoin
from repro.costmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a, workload_ratio

#: scalar constants to perturb (dict-valued constants are perturbed
#: uniformly across their entries).
SCALAR_CONSTANTS = (
    "shared_build_contention",
    "per_hop_random_penalty",
    "l2_random_rate",
    "llc_random_rate",
    "random_sector_bytes",
    "join_pipeline_overhead",
)
DICT_CONSTANTS = (
    "independent_access_factor",
    "atomic_rate",
    "issue_efficiency",
    "dram_concurrency",
)


def _movement(r: FigureResult, constant: str) -> float:
    """The largest anchor movement (%) one constant's perturbation causes."""
    return max(next(row for row in r.rows if row.label == constant).values.values())


CLAIMS = (
    Claim("Robust constants: a ±20% perturbation moves no anchor by 2% or more",
          lambda r: all(_movement(r, constant) < 2.0 for constant in (
              "shared_build_contention", "per_hop_random_penalty", "l2_random_rate",
              "join_pipeline_overhead"))),
    Claim("Stiff constants visibly matter (over 1%), but ±20% moves no anchor by 25% or more: "
          "shapes survive recalibration",
          lambda r: all(1.0 < _movement(r, constant) < 25.0 for constant in (
              "independent_access_factor", "atomic_rate", "issue_efficiency"))),
)


def _perturbed(name: str, factor: float) -> Calibration:
    """A calibration with one constant scaled by ``factor``."""
    base = DEFAULT_CALIBRATION
    value = getattr(base, name)
    if isinstance(value, dict):
        new_value = {k: v * factor for k, v in value.items()}
    else:
        new_value = value * factor
    return dataclasses.replace(base, **{name: new_value})


def _anchors(calibration: Calibration, machine, executed) -> Dict[str, float]:
    """The four anchor metrics under one calibration, priced from the
    executions of workload A and of the 1:1 workload in ``executed``
    (execution does not depend on the calibration)."""
    gpu = NoPartitioningJoin(machine, calibration=calibration)
    cpu = NoPartitioningJoin(machine, hash_table_placement="cpu", calibration=calibration)
    (wl_a, run_a), (wl_ratio, run_ratio) = executed
    a = throughputs(price_series(run_a, wl_a, (
        Series("fig12-coherence", gpu),
        Series("fig14-cpu-table", cpu),
        Series("fig21-cpu-only", cpu, {"processor": "cpu0"}),
    )))
    ratio = price_series(run_ratio, wl_ratio, (Series("fig18-build-share", gpu),))
    return {
        "fig12-coherence": a["fig12-coherence"],
        "fig18-build-share": 100.0 * ratio["fig18-build-share"].build_fraction,
        "fig14-cpu-table": a["fig14-cpu-table"],
        "fig21-cpu-only": a["fig21-cpu-only"],
    }


def run(scale: float = 2.0**-14, perturbation: float = 0.2) -> FigureResult:
    """Max |relative anchor change| per constant, at ±perturbation."""
    result = FigureResult(
        figure="Sensitivity",
        title=(
            f"Anchor movement under ±{perturbation:.0%} calibration "
            "perturbations"
        ),
        unit="max |Δ| (%)",
        notes=(
            "Small numbers = the reproduction does not hinge on that "
            "constant; large numbers = a stiff constant that must be "
            "re-fitted on different hardware."
        ),
    )
    machine = ibm_ac922()
    executed = [
        (wl, NoPartitioningJoin(machine).execute(wl.r, wl.s))
        for wl in (workload_a(scale=scale), workload_ratio(1, scale=scale))
    ]
    baseline = _anchors(DEFAULT_CALIBRATION, machine, executed)
    for name in SCALAR_CONSTANTS + DICT_CONSTANTS:
        movements: Dict[str, float] = {}
        for factor in (1.0 - perturbation, 1.0 + perturbation):
            anchors = _anchors(_perturbed(name, factor), machine, executed)
            for anchor, value in anchors.items():
                change = abs(value - baseline[anchor]) / abs(baseline[anchor])
                movements[anchor] = max(movements.get(anchor, 0.0), change)
        result.add(
            name, **{anchor: 100.0 * v for anchor, v in movements.items()}
        )
    return result
