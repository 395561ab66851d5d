"""Figure 11: the hash-table placement decision tree, validated.

The paper gives the decision process as a flowchart without an
experiment.  This bench sweeps build-side sizes across the tree's
branch points (cache-sized, GPU-sized, beyond-GPU) and checks that the
strategy the tree picks is (near-)optimal among all strategies the
machine supports — i.e. the flowchart is consistent with the measured
trade-offs of Figures 13/14/17/21.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, missing, near, price_series, throughputs
from repro.core.join.coop import CoopJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.core.placement import decide_placement
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_b, workload_ratio

#: build-side cardinalities probing each branch of the tree
#: (table bytes = 16 x tuples).
SWEEP = (
    ("cache-sized (4 MiB)", None),  # workload B
    ("in-GPU (8 GiB)", 512),
    ("in-GPU (15 GiB)", 960),
    ("beyond-GPU (24 GiB)", 1536),
    ("beyond-GPU (32 GiB)", 2048),
)

_IN_CORE = ("cache-sized (4 MiB)", "in-GPU (8 GiB)", "in-GPU (15 GiB)")
_BEYOND = ("beyond-GPU (24 GiB)", "beyond-GPU (32 GiB)")

CLAIMS = (
    Claim("In-core, the tree's choice is within 2% of the best strategy found",
          lambda r: all(near(r.value(label, "chosen"), r.value(label, "best"), 0.02)
                        for label in _IN_CORE)),
    Claim("The tree's choice is never above the best strategy found",
          lambda r: all(row.values["chosen"] <= row.values["best"] * 1.001 for row in r.rows)),
    Claim("A cache-sized table picks the cooperative GPU+Het (Figure 21 B)",
          lambda r: near(r.value(_IN_CORE[0], "chosen"), r.value(_IN_CORE[0], "gpu+het"), 0.01)),
    Claim("Beyond GPU memory, neither a GPU table nor a replicated one fits",
          lambda r: all(missing(r, label, series)
                        for label in _BEYOND for series in ("gpu", "gpu+het"))),
    Claim("Beyond GPU memory, the tree picks the robust Het, above the CPU-only rate (0.4)",
          lambda r: all(near(r.value(label, "chosen"), r.value(label, "het"), 0.01)
                        and r.value(label, "chosen") > 0.4 for label in _BEYOND)),
)


_DECISION_TO_SERIES = {
    ("gpu", "gpu"): "gpu",
    ("gpu", "hybrid"): "gpu-hybrid",
    ("het", "cpu"): "het",
    ("gpu+het", "gpu"): "gpu+het",
}


def run(scale: float = 2.0**-13) -> FigureResult:
    result = FigureResult(
        figure="Figure 11",
        title="Placement decision tree vs. exhaustive strategy search",
        notes=(
            "In-core regimes: the tree's choice IS the best strategy. "
            "Beyond GPU memory the tree prefers Het — the *robust* "
            "choice (never below the CPU baseline, Section 6's goal) — "
            "although the single-GPU hybrid table peaks higher when the "
            "GPU fraction is still large."
        ),
    )
    machine = ibm_ac922()
    # Every strategy the machine supports; one that does not fit leaves
    # no cell.
    strategies = (
        Series("gpu", NoPartitioningJoin(machine, hash_table_placement="gpu")),
        Series("gpu-hybrid", NoPartitioningJoin(machine, hash_table_placement="hybrid")),
        Series("het", CoopJoin(machine, strategy="het")),
        Series("gpu+het", CoopJoin(machine, strategy="gpu+het")),
    )
    for label, millions in SWEEP:
        if millions is None:
            workload = workload_b(scale=scale)
            table_bytes = workload.r.modeled_tuples * 16
        else:
            workload = workload_ratio(1, scale=scale, modeled_r=millions * 10**6)
            table_bytes = millions * 10**6 * 16
        decision = decide_placement(machine, table_bytes)
        chosen_series = _DECISION_TO_SERIES[
            (decision.strategy, decision.hash_table_placement)
        ]
        execution = NoPartitioningJoin(machine).execute(workload.r, workload.s)
        values = throughputs(price_series(execution, (workload.r, workload.s), strategies))
        values["chosen"] = values[chosen_series]
        values["best"] = max(values.values())
        result.add(label, **values)
    return result
