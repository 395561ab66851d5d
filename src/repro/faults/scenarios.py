"""Canonical chaos scenarios: the fixed seed set CI sweeps.

One :func:`chaos_plan` per seed in :data:`CHAOS_SEEDS`; together the
three plans exercise every recovery path the resilience subsystem has —
bounded retry (transients), re-dispatch (worker crashes), and graceful
degradation of the hash-table placement to hybrid (injected OOM,
Section 5.3 / Figure 8).  The chaos integration tests and
``repro.bench.chaos_overhead`` both build their runs from this module,
so the suite and the committed bench baseline cannot drift apart.
"""

from __future__ import annotations

from repro.faults.plan import (
    CrashWorker,
    DegradeLink,
    FailQuery,
    FaultPlan,
    OomAt,
    TransientError,
)

#: the fixed seed set the chaos suite sweeps; collectively the three runs
#: must exercise >=1 retry, >=1 re-dispatch, and >=1 hybrid spill.
CHAOS_SEEDS = (101, 202, 303)

#: the fixed seed set the chaos-*serving* suite sweeps; collectively the
#: three plans must exercise >=1 serving retry (transients), >=1
#: contention re-solve under degraded link capacity, and >=1 opened
#: circuit breaker (a workload that fails on every attempt).
SERVING_CHAOS_SEEDS = (404, 505, 606)

#: the allocation-site label of the GPU placement capacity check — the
#: OOM seed targets it to simulate a full GPU (see place_hash_table).
GPU_PLACEMENT_LABEL = "ht gpu placement"


def chaos_plan(seed: int, worker_prefix: str = "nopa") -> FaultPlan:
    """The canonical fault plan for one CI chaos seed.

    ``worker_prefix`` is the executor name whose workers the crash seed
    targets (``<prefix>-w0`` ... — the NOPA join names its executor
    ``nopa``).
    """
    if seed == 101:  # transient kernel faults -> bounded retry
        return FaultPlan(
            seed=seed,
            name="chaos-transients",
            rules=[TransientError(probability=0.5, times=None)],
        )
    if seed == 202:  # worker crashes -> re-dispatch to survivors
        return FaultPlan(
            seed=seed,
            name="chaos-crashes",
            rules=[
                CrashWorker(worker=f"{worker_prefix}-w0", ordinal=1),
                CrashWorker(worker=f"{worker_prefix}-w2", ordinal=0),
            ],
        )
    if seed == 303:  # placement OOM -> hybrid (GPU-first, CPU-spill)
        return FaultPlan(
            seed=seed,
            name="chaos-oom",
            rules=[OomAt(ordinal=0, label=GPU_PLACEMENT_LABEL)],
        )
    raise ValueError(f"no chaos plan for seed {seed}; CI seeds: {CHAOS_SEEDS}")


def serving_chaos_plan(seed: int) -> FaultPlan:
    """The canonical serving-layer fault plan for one CI chaos seed.

    * ``404`` — seeded transient query failures, first-attempt only, so
      every faulted query recovers on its first resubmission (exercises
      the ``RetryPolicy`` backoff path end to end).
    * ``505`` — a persistent link degradation applied *mid-serving*:
      the contention scheduler re-solves max-min rates with the reduced
      link capacity, stretching every query crossing it.
    * ``606`` — one workload (``join-b``) fails on *every* attempt:
      its queries burn their retry budget into terminal failures and
      the per-workload circuit breaker opens and fast-fails the rest.
    """
    if seed == 404:  # transient serving faults -> retry w/ backoff
        return FaultPlan(
            seed=seed,
            name="chaos-serving-transients",
            rules=[FailQuery(probability=0.3, attempts=(0,), times=None)],
        )
    if seed == 505:  # degraded interconnect mid-serving -> stretch
        return FaultPlan(
            seed=seed,
            name="chaos-serving-degrade",
            rules=[DegradeLink(factor=0.5, times=None)],
        )
    if seed == 606:  # one workload always fails -> breaker opens
        return FaultPlan(
            seed=seed,
            name="chaos-serving-breaker",
            rules=[
                FailQuery(
                    workload="join-b",
                    probability=1.0,
                    attempts=None,
                    times=None,
                )
            ],
        )
    raise ValueError(
        f"no serving chaos plan for seed {seed}; CI seeds: "
        f"{SERVING_CHAOS_SEEDS}"
    )
