"""The single pricing executor for phase plans.

The :class:`PlanExecutor` is the only component that calls
``CostModel.phase_cost`` / ``occupancy_per_unit`` on behalf of
operators (``tests/test_architecture.py`` enforces this).  It
walks a plan's phases in declared order and, per phase:

* prices the phase — through the cost model (PRICED), the max-min fair
  concurrent-rate solver (CONCURRENT), the morsel-dispatch
  discrete-event simulation (MORSEL), or verbatim (FIXED);
* applies chunked transfer/compute overlap
  (:func:`repro.plan.overlap.pipeline_makespan`) and serial surcharges
  (hash-table broadcasts);
* opens exactly one observability span per phase on the deterministic
  sim clock, annotated with the phase's bottleneck, and records the
  phase's metrics exactly once.

Each phase starts when the one before it finishes, so the plan's
makespan is the in-order running sum of its phase seconds.

:meth:`PlanExecutor.bound` is the closed-form companion the optimizer
prunes with: a lower bound on that makespan from the same occupancies,
with no solver iteration and no discrete-event replay.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.costmodel.model import CostModel, PhaseCost
from repro.obs import INERT, Observability
from repro.obs.metrics import Counter, Histogram
from repro.obs.trace import Timeline
from repro.plan.overlap import pipeline_makespan
from repro.plan.spec import PhaseKind, PhaseSpec, Plan, PlanError
from repro.sim.engine import Simulator
from repro.sim.resources import solo_rate, solve_concurrent_rates


#: Relative slack on the solver and morsel phase bounds.  Solved rates
#: never exceed the solo rates, but the morsel replay accumulates one
#: float addition per grant, so its makespan may land a few ULPs below
#: the exact ``units / sum(rates)``; 1e-9 covers ~10^6 such roundings.
BOUND_MARGIN = 1.0 - 1e-9

#: one morsel grant: ``(worker, start, end, tuples)`` on the phase's clock.
Grant = Tuple[str, float, float, int]


def _checked_seconds(phase: PhaseSpec, seconds: float) -> float:
    """``seconds`` of ``phase``, refused unless non-negative; ``+inf``
    passes, NaN does not."""
    if not seconds >= 0:
        raise PlanError(
            f"phase {phase.name!r} has a negative or NaN duration: {seconds}"
        )
    return seconds


@dataclass
class PhaseOutcome:
    """One executed phase: its cost plus scheduling detail."""

    name: str
    cost: PhaseCost
    #: position on the sequential span timeline (sim-clock seconds).
    start: float
    end: float
    #: solved per-worker rates/shares (CONCURRENT and MORSEL phases).
    rates: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)
    #: morsel grants in dispatch order (MORSEL phases).
    grants: Optional[List[Grant]] = field(default=None, repr=False)
    _timeline: Optional[Timeline] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def seconds(self) -> float:
        return self.cost.seconds

    @property
    def timeline(self) -> Optional[Timeline]:
        """Per-worker morsel timeline (MORSEL phases), built from the
        grants on first read."""
        if self.grants is None:
            return None
        if self._timeline is None:
            timeline = Timeline()
            for worker, start, end, tuples in self.grants:
                timeline.record(worker, self.name, start, end, tuples)
            self._timeline = timeline
        return self._timeline


@dataclass
class PlanResult:
    """Executor output: per-phase outcomes in execution order."""

    plan: Plan
    outcomes: Dict[str, PhaseOutcome]
    #: completion time: the in-order running sum of phase seconds.
    makespan: float

    def __getitem__(self, name: str) -> PhaseOutcome:
        return self.outcomes[name]

    def cost(self, name: str) -> PhaseCost:
        """The priced cost of phase ``name``."""
        return self.outcomes[name].cost

    def seconds(self, name: str) -> float:
        """Shorthand for ``cost(name).seconds``."""
        return self.outcomes[name].cost.seconds

    def phase_costs(self) -> List[PhaseCost]:
        """Per-phase costs in execution order (manifest input)."""
        return [o.cost for o in self.outcomes.values()]


class PlanExecutor:
    """Prices one plan, phase by phase, on one machine's cost model."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.obs: Observability = cost_model.obs

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, plan: Plan) -> PlanResult:
        """Run every phase in declared order and emit observability.

        Each phase gets exactly one outer span (its duration is the
        phase's full seconds on the sim clock) and exactly one metrics
        deposit; pricing-internal spans (``price[...]``, ``sim.run``)
        nest inside it.  A phase whose seconds are NaN or negative
        raises :class:`PlanError`.
        """
        tracer = self.obs.tracer
        clock = self.obs.clock
        outcomes: Dict[str, PhaseOutcome] = {}
        makespan = 0.0
        for phase in plan:
            with tracer.span(
                phase.name,
                worker=phase.span_worker or "plan",
                units=phase.span_units,
                **phase.span_attrs,
            ) as span:
                start = clock.now
                outcome = self._run_phase(phase)
                makespan += _checked_seconds(phase, outcome.cost.seconds)
                # Pricing may have advanced the clock already (priced
                # profiles advance by their cost, the morsel simulation
                # by its virtual time); top the span up to the phase's
                # full duration.
                remainder = outcome.cost.seconds - (clock.now - start)
                if remainder > 0:
                    span.advance(remainder)
                span.annotate(
                    bottleneck=outcome.cost.bottleneck, **phase.annotations
                )
                outcome.start = start
                outcome.end = clock.now
            outcomes[phase.name] = outcome
        return PlanResult(plan=plan, outcomes=outcomes, makespan=makespan)

    def bound(self, plan: Plan) -> float:
        """A lower bound on ``execute(plan).makespan``, in closed form.

        Each phase is bounded from below by the rule of the runner it
        mirrors (see :meth:`_phase_bound`), and the plan by the in-order
        sum of those bounds.  Float addition is monotone, so that sum
        stays at or under the executed one.  The runners' validations
        are applied too: a plan ``execute`` would reject raises the same
        error here.  Nothing is recorded.
        """
        bound = 0.0
        for phase in plan:
            bound += _checked_seconds(phase, self._phase_bound(phase))
        return bound

    def _phase_bound(self, phase: PhaseSpec) -> float:
        """One phase's lower bound, one rule per phase kind.

        * PRICED: ``phase_cost``'s bottleneck term before its fixed
          overhead.  Chunked overlap replaces the makespan factor with a
          pipeline makespan of at least the same term, and surcharges
          and fixed overheads only add non-negative seconds.
        * FIXED: its seconds.
        * CONCURRENT / MORSEL: every worker at its solo rate, which the
          solver only ever scales down: pool and morsel phases drain
          ``shared_units`` at the summed rates, barrier phases end with
          the slowest worker.  Dispatch latency and surcharges only add.
        """
        if phase.kind is PhaseKind.PRICED:
            assert phase.profile is not None
            occupancy = self.cost_model.profile_occupancy(phase.profile)
            bound = max(occupancy.values(), default=0.0) * (
                1.0 + self.cost_model.calibration.join_pipeline_overhead
            )
            if phase.chunked is None:
                bound *= phase.profile.makespan_factor
            return bound
        if phase.kind is PhaseKind.FIXED:
            assert phase.fixed_cost is not None
            return phase.fixed_cost.seconds
        rates = {
            key: solo_rate(demand) for key, demand in self._solve(phase).items()
        }
        pool = phase.shared_units
        if phase.kind is PhaseKind.MORSEL:
            # The dispatcher hands out whole tuples of an integer pool.
            pool = self._check_morsel(phase, rates)
        if pool is None:
            seconds = max(
                phase.loads[key].units / rate for key, rate in rates.items()
            )
        else:
            seconds = pool / sum(rates.values())
        return seconds * BOUND_MARGIN

    # ------------------------------------------------------------------
    # Phase pricing
    # ------------------------------------------------------------------
    def _run_phase(self, phase: PhaseSpec) -> PhaseOutcome:
        if phase.kind is PhaseKind.PRICED:
            return self._run_priced(phase)
        if phase.kind is PhaseKind.CONCURRENT:
            return self._run_concurrent(phase)
        if phase.kind is PhaseKind.MORSEL:
            return self._run_morsel(phase)
        return self._run_fixed(phase)

    def _run_priced(self, phase: PhaseSpec) -> PhaseOutcome:
        assert phase.profile is not None
        cost = self.cost_model.phase_cost(phase.profile)
        if phase.chunked is not None and cost.occupancy:
            cost = self._apply_chunked(phase, cost)
        cost = self._apply_surcharges(phase, cost)
        return PhaseOutcome(name=phase.name, cost=cost, start=0.0, end=0.0)

    def _apply_chunked(self, phase: PhaseSpec, cost: PhaseCost) -> PhaseCost:
        """Chunked-overlap makespan of a priced phase (Section 4.1).

        The phase's transfer and compute run as a software pipeline over
        ``chunks`` chunks: the bottleneck stage runs continuously and
        the overlapped stage adds one chunk of fill/drain, i.e. the
        two-stage makespan over the bottleneck's serial time.
        """
        assert phase.profile is not None and phase.chunked is not None
        base = cost.occupancy[cost.bottleneck] * (
            1.0 + self.cost_model.calibration.join_pipeline_overhead
        )
        seconds = pipeline_makespan(
            [base, base],
            phase.chunked.chunks,
            phase.chunked.per_chunk_overhead,
        )
        seconds += phase.profile.fixed_overhead
        return PhaseCost(
            seconds=seconds,
            bottleneck=cost.bottleneck,
            occupancy=cost.occupancy,
            label=cost.label,
        )

    def _apply_surcharges(self, phase: PhaseSpec, cost: PhaseCost) -> PhaseCost:
        if not phase.surcharges:
            return cost
        seconds = cost.seconds
        occupancy = dict(cost.occupancy)
        for surcharge in phase.surcharges:
            seconds += surcharge.seconds
            occupancy[surcharge.resource] = (
                occupancy.get(surcharge.resource, 0.0) + surcharge.seconds
            )
        bottleneck = (
            max(occupancy, key=lambda res: occupancy[res])
            if occupancy
            else cost.bottleneck
        )
        return PhaseCost(
            seconds=seconds,
            bottleneck=bottleneck,
            occupancy=occupancy,
            label=cost.label,
        )

    # -- concurrent (solver) phases ------------------------------------
    def _solve(self, phase: PhaseSpec) -> Dict[str, Dict[str, float]]:
        return {
            key: self.cost_model.occupancy_per_unit(load.profile, load.units)
            for key, load in phase.loads.items()
        }

    @staticmethod
    def _aggregate_cost(
        demands: Dict[str, Dict[str, float]],
        units_done: Dict[str, float],
        seconds: float,
        label: str,
    ) -> PhaseCost:
        """Sum per-worker occupancy at the solved shares into one cost.

        The result has the same shape single-profile pricing produces,
        so manifests report co-processed phases uniformly; its
        bottleneck is the most-occupied shared resource.
        """
        occupancy: Dict[str, float] = defaultdict(float)
        for key, demand in demands.items():
            units = units_done.get(key, 0.0)
            for resource, per_unit in demand.items():
                occupancy[resource] += per_unit * units
        bottleneck = (
            max(occupancy, key=lambda res: occupancy[res])
            if occupancy
            else "(none)"
        )
        return PhaseCost(
            seconds=seconds,
            bottleneck=bottleneck,
            occupancy=dict(occupancy),
            label=label,
        )

    def _record_load_metrics(
        self, phase: PhaseSpec, shares: Dict[str, float]
    ) -> None:
        """One metrics deposit per worker, scaled to its solved share."""
        for key, load in phase.loads.items():
            self.cost_model.record_profile_metrics(
                load.profile.scaled(shares.get(key, 0.0))
            )

    def _run_concurrent(self, phase: PhaseSpec) -> PhaseOutcome:
        demands = self._solve(phase)
        rates = solve_concurrent_rates(demands)
        if phase.shared_units is not None:
            # Pool mode: all workers drain one shared unit pool.
            combined = sum(rates.values())
            seconds = (
                phase.shared_units / combined if combined > 0 else 0.0
            )
            units_done = {key: rates[key] * seconds for key in demands}
            shares = {
                key: (
                    units_done[key] / phase.shared_units
                    if phase.shared_units
                    else 0.0
                )
                for key in demands
            }
        else:
            # Barrier mode: every worker finishes its own units.
            seconds = max(
                phase.loads[key].units / rates[key] for key in demands
            )
            units_done = {key: phase.loads[key].units for key in demands}
            shares = {key: 1.0 for key in demands}
        cost = self._aggregate_cost(demands, units_done, seconds, phase.name)
        cost = self._apply_surcharges(phase, cost)
        self._record_load_metrics(phase, shares)
        return PhaseOutcome(
            name=phase.name,
            cost=cost,
            start=0.0,
            end=0.0,
            rates=dict(rates),
            shares=shares,
        )

    def _run_morsel(self, phase: PhaseSpec) -> PhaseOutcome:
        """Replay the central morsel dispatcher (Section 6.1) on a
        discrete-event clock.

        Each worker, whenever it is idle, takes the next ``batch``
        morsels from a read cursor over ``shared_units`` tuples and
        stays busy for its dispatch latency plus the batch at its solved
        rate.  The cursor is a local integer and every grant is one
        ``(worker, start, end, tuples)`` log entry; shares, dispatch
        metrics and the lazily built timeline all derive from that log.
        """
        # Imported here: repro.core packages compile plans, so a
        # module-level import would be circular.
        from repro.core.scheduler.batch import tune_batch_morsels

        demands = self._solve(phase)
        rates = solve_concurrent_rates(demands)
        total_tuples = self._check_morsel(phase, rates)
        morsel_tuples = phase.morsel_tuples
        sim = Simulator(tracer=self.obs.tracer)
        grants: List[Grant] = []
        cursor = 0

        def make_worker(name: str, rate: float, batch: int, latency: float):
            step = batch * morsel_tuples

            def work(simulator: Simulator) -> None:
                nonlocal cursor
                start = cursor
                if start >= total_tuples:
                    return
                cursor = min(total_tuples, start + step)
                tuples = cursor - start
                now = simulator.now
                duration = latency + tuples / rate
                grants.append((name, now, now + duration, tuples))
                simulator.schedule(duration, work)

            return work

        for key in phase.loads:
            rate = rates[key]
            worker = phase.morsel_workers[key]
            batch = worker.batch_morsels or tune_batch_morsels(
                morsel_tuples, rate, worker.dispatch_latency
            )
            sim.schedule(
                0.0, make_worker(key, rate, batch, worker.dispatch_latency)
            )
        seconds = sim.run()
        dispatched = dict.fromkeys(phase.loads, 0)
        for name, _start, _end, tuples in grants:
            dispatched[name] += tuples
        shares = {
            key: dispatched[key] / max(1, total_tuples) for key in phase.loads
        }
        units_done = {key: float(dispatched[key]) for key in phase.loads}
        if self.obs is not INERT:
            self._record_dispatch_metrics(grants, morsel_tuples)
        cost = self._aggregate_cost(demands, units_done, seconds, phase.name)
        self._record_load_metrics(phase, shares)
        return PhaseOutcome(
            name=phase.name,
            cost=cost,
            start=0.0,
            end=0.0,
            rates=dict(rates),
            shares=shares,
            grants=grants,
        )

    @staticmethod
    def _check_morsel(phase: PhaseSpec, rates: Dict[str, float]) -> int:
        """The morsel runner's validations, shared with its bound;
        returns the dispatcher pool's tuple count.  An unset batch
        auto-tunes to at least one morsel, so only a negative explicit
        batch is refused."""
        total_tuples = int(phase.shared_units or 0)
        if total_tuples < 0:
            raise ValueError(f"total tuples must be non-negative: {total_tuples}")
        if phase.morsel_tuples <= 0:
            raise ValueError(
                f"morsel size must be positive: {phase.morsel_tuples}"
            )
        for key in phase.loads:
            rate = rates[key]
            if not 0 < rate < float("inf"):
                raise RuntimeError(f"degenerate probe rate for {key}: {rate}")
            batch = phase.morsel_workers[key].batch_morsels
            if batch is not None and batch < 0:
                raise ValueError(f"must request at least one morsel: {batch}")
        return total_tuples

    def _record_dispatch_metrics(
        self, grants: List[Grant], morsel_tuples: int
    ) -> None:
        """Per-grant dispatcher metrics, deposited in grant order."""
        metrics = self.obs.metrics
        cells: Dict[str, Tuple[Counter, Histogram]] = {}
        for name, _start, _end, tuples in grants:
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = (
                    metrics.counter("morsels_dispatched_total", worker=name),
                    metrics.histogram("dispatch_batch_tuples", worker=name),
                )
            morsels, batch_tuples = cell
            morsels.inc(-(-tuples // morsel_tuples))
            batch_tuples.observe(tuples)

    def _run_fixed(self, phase: PhaseSpec) -> PhaseOutcome:
        assert phase.fixed_cost is not None
        cost = phase.fixed_cost
        for resource, busy in cost.occupancy.items():
            self.obs.metrics.counter(
                "resource_busy_seconds_total", resource=resource
            ).inc(busy)
        return PhaseOutcome(name=phase.name, cost=cost, start=0.0, end=0.0)
