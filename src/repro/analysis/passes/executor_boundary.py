"""Executor-boundary pass: only ``repro.plan`` prices phases.

The phase-plan refactor made the :class:`repro.plan.PlanExecutor` the
single component that prices work through the cost model.  Operators
compile sequences of :class:`~repro.plan.PhaseSpec` and hand them to the
executor, which owns the chunked-overlap arithmetic, the concurrent
solver, and the exactly-once span/metric emission.  A direct call to
``CostModel.phase_cost`` / ``phases_cost`` / ``occupancy_per_unit``
anywhere else bypasses all of that: the phase would be priced without
its overlap attributes and either double-emit or skip its
observability records.  This pass flags such calls; deliberate
exceptions (e.g. pedagogical examples) go through
``analysis-baseline.json`` with a justification.

Since the logical-plan layer landed, the same boundary argument
applies one level up: :class:`repro.plan.Plan` sequences are *compiler
output*.  Operators state a logical query and physical configuration
and let ``repro.logical.lower.compile_query`` assemble the plan, so
the optimizer can enumerate alternatives for anything an operator can
run.  A hand-built ``Plan(...)`` outside ``repro.logical`` /
``repro.plan`` escapes that search space; the pass flags it.  Every
operator facade — the radix baseline, the multi-GPU join and the
generic selection scan included — goes through ``compile_query``, so
the repo carries no baseline entry for this rule.

The serving engine adds a third boundary: the discrete-event
:class:`repro.sim.Simulator` itself.  Its clock semantics (``(time,
seq)`` order, a past time is fatal) are load-bearing for multi-query
scheduling, and two components driving private simulators over the
same logical workload would disagree about virtual time.  Multi-query
workloads may only be driven by ``repro.serve.scheduler`` (the
``ContentionScheduler``);
single-operator DES usage stays inside ``repro.plan`` and the
``repro.transfer`` stream cross-check.  A ``Simulator(...)``
constructed anywhere else is flagged.

The cancellation path (PR 10) widened that surface: deadline
enforcement rests on ``Simulator.schedule_at`` + ``cancel_event``
pairs whose event bookkeeping lives in the scheduler, so a component
*driving* those APIs — even against a simulator it did not construct —
would race the scheduler's deadline/retry event accounting.  Calls to
``schedule_at(...)`` / ``cancel_event(...)`` outside the sanctioned
DES drivers are flagged alongside rogue constructions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.base import AnalysisPass, ModuleContext, dotted_name
from repro.analysis.finding import Finding

#: CostModel pricing entry points reserved for the plan executor.
_PRICING_METHODS = {"phase_cost", "phases_cost", "occupancy_per_unit"}

#: Simulator-driving entry points reserved for the sanctioned DES
#: drivers.  ``schedule`` alone is too generic a name to key on;
#: ``schedule_at`` and ``cancel_event`` are distinctive to the event
#: loop and carry its clock/cancellation semantics.
_SIM_DRIVER_METHODS = {"schedule_at", "cancel_event"}


class ExecutorBoundaryPass(AnalysisPass):
    name = "executor-boundary"
    description = (
        "operators compile phase plans; only repro.plan may price "
        "phases through CostModel.phase_cost/phases_cost/"
        "occupancy_per_unit, only repro.logical/repro.plan may "
        "hand-assemble Plan objects, and only the sanctioned drivers "
        "(repro.serve.scheduler for multi-query workloads) may "
        "construct Simulator instances or drive its "
        "schedule_at/cancel_event event APIs"
    )
    #: everything is in scope except the pricing layer itself; see
    #: :meth:`in_scope`.
    scope = ()

    #: path fragments allowed to price directly: the executor package
    #: and the cost model's own implementation.
    exempt = ("repro/plan/", "costmodel/model")

    #: path fragments additionally allowed to construct ``Plan``
    #: objects: the lowering compiler is the plan factory.
    plan_exempt = ("repro/plan/", "repro/logical/")

    #: path fragments allowed to construct :class:`repro.sim.Simulator`:
    #: the engine's own package, the plan executor's DES paths, the
    #: transfer-pipeline cross-check, and — the only sanctioned driver
    #: of ``Simulator.run`` for *multi-query* workloads — the serving
    #: scheduler.
    sim_exempt = (
        "repro/sim/",
        "repro/plan/",
        "repro/serve/scheduler",
        "repro/transfer/stream",
    )

    def in_scope(self, posix_path: str) -> bool:
        return not any(fragment in posix_path for fragment in self.exempt)

    def check(self, ctx: ModuleContext) -> List[Finding]:
        return list(self._iter_findings(ctx))

    def _may_build_plans(self, ctx: ModuleContext) -> bool:
        return any(
            fragment in ctx.posix_path for fragment in self.plan_exempt
        )

    def _may_build_simulators(self, ctx: ModuleContext) -> bool:
        return any(
            fragment in ctx.posix_path for fragment in self.sim_exempt
        )

    def _iter_findings(self, ctx: ModuleContext) -> Iterator[Finding]:
        plans_allowed = self._may_build_plans(ctx)
        sims_allowed = self._may_build_simulators(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not plans_allowed
                and isinstance(func, ast.Name)
                and func.id == "Plan"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "hand-built `Plan(...)` outside repro.logical/"
                    "repro.plan; plans are compiler output — express the "
                    "pipeline as a logical query (or a lowering rule in "
                    "repro.logical.lower) so the optimizer can enumerate "
                    "its physical alternatives",
                )
                continue
            if (
                not sims_allowed
                and isinstance(func, ast.Name)
                and func.id == "Simulator"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "direct `Simulator(...)` construction outside the "
                    "sanctioned DES drivers; only repro.serve.scheduler "
                    "may drive Simulator.run for multi-query workloads "
                    "(single-operator DES lives in repro.plan / "
                    "repro.transfer.stream) — route concurrent queries "
                    "through the ContentionScheduler so they share one "
                    "virtual clock",
                )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            if not sims_allowed and func.attr in _SIM_DRIVER_METHODS:
                yield self.finding(
                    ctx,
                    node,
                    f"DES-driving call `{dotted_name(func)}()` outside "
                    "the sanctioned drivers; schedule_at/cancel_event "
                    "carry the simulator's clock and cancellation "
                    "semantics (deadline/retry/completion events are "
                    "accounted in repro.serve.scheduler) — route event "
                    "scheduling through the ContentionScheduler or the "
                    "single-operator DES paths in repro.plan / "
                    "repro.transfer.stream",
                )
                continue
            if func.attr not in _PRICING_METHODS:
                continue
            yield self.finding(
                ctx,
                node,
                f"direct pricing call `{dotted_name(func)}()` outside "
                "repro.plan; compile the work into a PhaseSpec and let "
                "the PlanExecutor price it (overlap arithmetic and "
                "span/metric emission live there)",
            )
