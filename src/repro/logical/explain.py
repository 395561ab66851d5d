"""Explain the optimizer's choice for a named workload.

CLI::

    python -m repro.logical.explain q6
    python -m repro.logical.explain join-a --machine intel-xeon-v100
    python -m repro.logical.explain --list

For the named workload, the optimizer enumerates the physical search
space (transfer methods, hash-table placements, strategies, join
orders, host tiers), prices every candidate with the cost model, and
prints the chosen plan followed by every alternative — viable ones
ranked by predicted seconds, rejected ones with the rejection reason
(e.g. ``coherence`` on a PCI-e machine).

The registry is shared with the predicted-vs-actual gap benchmark
(``repro.bench.optimizer_gap``), so the workloads explained here are
exactly the ones whose estimation error is tracked in CI.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.relation import Relation
from repro.hardware import ibm_ac922, intel_xeon_v100
from repro.hardware.topology import Machine
from repro.logical.algebra import Query, between, ge, lt, mul, scan
from repro.logical.optimizer import OptimizerResult, optimize
from repro.workloads.builders import (
    workload_a,
    workload_b,
    workload_selectivity,
)
from repro.workloads.tpch import (
    Q6_DISCOUNT_HI,
    Q6_DISCOUNT_LO,
    Q6_QUANTITY_LT,
    Q6_SHIPDATE_HI,
    Q6_SHIPDATE_LO,
    lineitem_q6,
)

#: The join workloads keep their *modeled* (paper) cardinalities — the
#: trade-offs the optimizer must re-derive (Table-1 method ranking,
#: Figure-11 placement, Het-vs-GPU strategy) only appear at paper
#: scale, where transfer and memory terms dominate fixed overheads.
#: The *executed* arrays are scaled down (the builders' default
#: ``scale``), and planning never reads them: the builders return
#: statistics-only relations whose columns are generated on the first
#: functional read, so optimizing a registry query allocates no column.
Q6_SCALE_FACTOR = 100.0
#: match rate of the Figure-20 reduced-selectivity join workload.  The
#: hint the optimizer sees is this exact value; the *sampled* match
#: rate differs by rng noise, which is precisely the estimation error
#: the gap benchmark measures.
JOIN_SEL_SELECTIVITY = 0.5
STAR_DIMS = ("d1_key", "d2_key", "d3_key")
#: fraction of the fact key domain each dimension covers — the join's
#: survival rate, used both to generate the data and as the logical
#: query's selectivity hint (so estimated and measured statistics agree
#: up to sampling noise).
STAR_SELECTIVITY = (0.9, 0.5, 0.2)
STAR_FACT_MODELED = 1 << 26
STAR_DIM_MODELED = 1 << 20

MACHINES: Dict[str, Callable[[], Machine]] = {
    "ibm-ac922": ibm_ac922,
    "intel-xeon-v100": intel_xeon_v100,
}


def _join_query(wl) -> Query:
    """S probes a table built from R (the NOPA/Coop shape).

    The workload's own match rate becomes the join's selectivity hint
    (omitted at 1.0 — the every-key-matches default)."""
    hint = None if wl.selectivity == 1.0 else wl.selectivity
    return (
        scan(wl.s)
        .join(scan(wl.r), build_key="key", probe_key="key", selectivity=hint)
        .aggregate(agg=("build_payload", "sum"))
    )


def _q6_query() -> Query:
    """Q6 as a logical plan (Figure 15's scan/filter/aggregate).

    The selectivity hints are dbgen's: the one-year shipdate window
    keeps ~15% of lineitem (and dbgen clusters by shipdate), the
    discount band ~27%, the quantity cut ~48%.
    """
    return (
        scan(lineitem_q6(Q6_SCALE_FACTOR), name="lineitem")
        .filter(
            ge(
                "l_shipdate",
                Q6_SHIPDATE_LO,
                selectivity=0.15,
                clustered=True,
            ),
            lt("l_shipdate", Q6_SHIPDATE_HI),
            between(
                "l_discount",
                np.float32(Q6_DISCOUNT_LO - 1e-6),
                np.float32(Q6_DISCOUNT_HI + 1e-6),
                selectivity=0.27,
            ),
            lt("l_quantity", Q6_QUANTITY_LT, selectivity=0.48),
        )
        .project(revenue=mul("l_extendedprice", "l_discount"))
        .aggregate(revenue=("revenue", "sum"))
    )


def star_inputs() -> Tuple[Dict[str, "np.ndarray"], Tuple[Relation, ...]]:
    """Deterministic star-join inputs: fact key columns + dimensions.

    Each dimension covers only ``STAR_SELECTIVITY[i]`` of the fact key
    domain, so the measured per-dimension survival matches the query's
    selectivity hints up to sampling noise.  Shared with the facade run
    of the gap benchmark (``repro.bench.optimizer_gap``) so predicted
    and actual prices describe the same data.
    """
    rng = np.random.default_rng(7)
    n_dim = 1 << 10
    n_fact = 1 << 14
    fact = {
        key: rng.integers(0, n_dim, n_fact).astype(np.int64)
        for key in STAR_DIMS
    }
    dims = []
    for i, key in enumerate(STAR_DIMS):
        covered = int(n_dim * STAR_SELECTIVITY[i])
        dims.append(
            Relation(
                name=key,
                key=np.arange(covered, dtype=np.int64),
                payload=rng.integers(0, 100, covered).astype(np.int64),
                modeled_tuples=STAR_DIM_MODELED,
            )
        )
    return fact, tuple(dims)


def _star_query() -> Query:
    """A three-dimension star: the fact scan probes one join per
    dimension, each with its own output prefix and a survival hint."""
    fact, dims = star_inputs()
    query = scan(
        fact,
        name="fact",
        modeled_rows=STAR_FACT_MODELED,
        location="cpu0-mem",
    )
    for i, key in enumerate(STAR_DIMS):
        query = query.join(
            scan(dims[i]),
            build_key="key",
            probe_key=key,
            selectivity=STAR_SELECTIVITY[i],
            output_prefix=f"{key}_",
        )
    return query.aggregate(star=(f"{STAR_DIMS[0]}_payload", "sum"))


#: name -> (description, query builder).  The query builders reuse the
#: facades' own logical-query constructors where one exists, so the
#: explained plans are the plans the operators actually run.
WORKLOADS: Dict[str, Tuple[str, Callable[[], Query]]] = {
    "q6": (
        "TPC-H Q6 scan/filter/aggregate (Figure 15)",
        _q6_query,
    ),
    "join-a": (
        "workload A hash join, 2 GiB build side (Figure 7)",
        lambda: _join_query(workload_a()),
    ),
    "join-b": (
        "workload B hash join, cache-resident build side (Figure 7)",
        lambda: _join_query(workload_b()),
    ),
    "join-sel": (
        "workload A at 50% join selectivity (Figure 20)",
        lambda: _join_query(workload_selectivity(JOIN_SEL_SELECTIVITY)),
    ),
    "star": (
        "three-dimension star join (Section 6.2 multi-way extension)",
        _star_query,
    ),
}


def explain_workload(
    name: str, machine_name: str = "ibm-ac922"
) -> OptimizerResult:
    """Optimize a named workload and return the full decision."""
    if name not in WORKLOADS:
        raise KeyError(
            f"unknown workload {name!r}; valid: {', '.join(sorted(WORKLOADS))}"
        )
    if machine_name not in MACHINES:
        raise KeyError(
            f"unknown machine {machine_name!r}; valid: "
            f"{', '.join(sorted(MACHINES))}"
        )
    _description, build_query = WORKLOADS[name]
    return optimize(build_query(), MACHINES[machine_name](), label=name)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.logical.explain",
        description="Print the optimizer's chosen physical plan and all "
        "rejected alternatives for a named workload.",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        help=f"workload name ({', '.join(sorted(WORKLOADS))})",
    )
    parser.add_argument(
        "--machine",
        default="ibm-ac922",
        choices=sorted(MACHINES),
        help="machine to optimize for (default: ibm-ac922)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the named workloads and exit",
    )
    args = parser.parse_args(argv)
    if args.list or args.workload is None:
        for name in sorted(WORKLOADS):
            print(f"{name:10s} {WORKLOADS[name][0]}")
        return 0
    result = explain_workload(args.workload, args.machine)
    print(result.explain())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
