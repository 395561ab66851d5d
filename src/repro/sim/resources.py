"""Shared-resource throughput solver for concurrent workers.

When a CPU and a GPU process the same join cooperatively (Section 6),
they compete for shared resources — most importantly the CPU memory
channels feeding both the CPU cores and the GPU's interconnect reads.
Given each worker's per-work-unit occupancy vector (seconds of busy time
deposited on each resource per tuple), the solver finds sustainable
per-worker rates under max-min fairness with proportional scaling:

* every worker starts at its solo rate (bounded by its own bottleneck),
* any resource whose total demand exceeds 1 busy-second per second
  scales its users down proportionally,
* repeat until feasible.

This waterfilling converges quickly (monotone decrease, fixed point at
feasibility) and reproduces the paper's observation that co-processing
must "avoid resource contention ... to prevent slowing down the overall
execution" (Section 6, requirement (c)).

The result is a pure function of the *ordered* input (loads are summed
in worker order, the first-used resource wins a worst-load tie), so a
caller may reuse a solution for an identical ordered input.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

ResourceVector = Mapping[str, float]


class SolverError(RuntimeError):
    """The waterfilling solver could not reach a feasible point.

    Carries diagnostics instead of a bare message: the most
    oversubscribed resource, its residual load (busy-seconds deposited
    per second of wall time; feasible means <= 1), and how many
    iterations ran before giving up.
    """

    def __init__(
        self,
        worst_resource: Optional[str],
        residual_load: float,
        iterations: int,
    ) -> None:
        self.worst_resource = worst_resource
        self.residual_load = residual_load
        self.iterations = iterations
        super().__init__(
            f"concurrent rate solver failed to converge after "
            f"{iterations} iterations: resource {worst_resource!r} "
            f"still carries load {residual_load:.12g} (> 1)"
        )


def solo_rate(occupancy_per_unit: ResourceVector) -> float:
    """Units/s a worker sustains alone: 1 / max resource occupancy."""
    if not occupancy_per_unit:
        return float("inf")
    worst = max(occupancy_per_unit.values())
    if worst <= 0:
        return float("inf")
    return 1.0 / worst


def _worst_loaded(
    users: Mapping[str, Sequence[Tuple[str, float]]],
    rates: Mapping[str, float],
    tolerance: float,
) -> Tuple[Optional[str], float]:
    """The most oversubscribed resource at ``rates`` (None if feasible);
    ``users`` is ``resource -> [(worker, occupancy)]`` in worker order."""
    worst_resource: Optional[str] = None
    worst_load = 1.0 + tolerance
    for resource, pairs in users.items():
        load = 0.0
        for worker, occupancy in pairs:
            load = load + occupancy * rates[worker]
        if load > worst_load:
            worst_load = load
            worst_resource = resource
    return worst_resource, worst_load


def solve_concurrent_rates(
    demands: Mapping[str, ResourceVector],
    tolerance: float = 1e-9,
    max_iterations: int = 1000,
) -> Dict[str, float]:
    """Sustainable units/s per worker under shared-resource contention.

    Args:
        demands: worker name -> {resource name: occupancy seconds/unit}.

    Returns:
        worker name -> rate (units/s).  Workers with no demands get inf.

    Raises:
        SolverError: if ``max_iterations`` waterfilling rounds leave a
            resource oversubscribed (the error names the worst resource,
            its residual load, and the iteration count).  An oscillation
            guard returns early instead when the same resource stays
            worst without its load improving by more than ``tolerance``
            — the float-rounding fixed point, feasible within noise.
    """
    rates = {worker: solo_rate(vector) for worker, vector in demands.items()}
    # Who loads what, once per solve: resources in first-use order,
    # users in worker (insertion, not set) order, so load sums stay
    # deterministic; workers at an infinite rate deposit no load.
    users: Dict[str, List[Tuple[str, float]]] = {}
    for worker, vector in demands.items():
        if rates[worker] != float("inf"):
            for resource, occupancy in vector.items():
                users.setdefault(resource, []).append((worker, occupancy))
    last_resource: Optional[str] = None
    last_load = float("inf")
    for _ in range(max_iterations):
        worst_resource, worst_load = _worst_loaded(users, rates, tolerance)
        if worst_resource is None:
            return rates
        # Oscillation guard: scaling never increases any rate, so a
        # resource that stays worst with no measurable improvement is
        # at the float-rounding fixed point (load ~ 1 + ULPs); return
        # rather than spinning until the iteration cap.
        if worst_resource == last_resource and last_load - worst_load <= tolerance:
            return rates
        last_resource = worst_resource
        last_load = worst_load
        # Scale down every user of the oversubscribed resource.
        scale = 1.0 / worst_load
        for worker, occupancy in users[worst_resource]:
            if occupancy > 0:
                rates[worker] *= scale
    residual_resource, residual_load = _worst_loaded(users, rates, tolerance)
    if residual_resource is None:
        return rates
    raise SolverError(residual_resource, residual_load, max_iterations)
