"""Serving under a fault plan: capacity answers reused, outcomes pinned.

``QueryService.serve`` answers the scheduler's capacity hook from a
per-pass table keyed by ``len(plan.injected)``.  Two checks guard it:

* **Pins.**  ``PINNED`` holds one sha256 per case, recorded by
  ``_case_digest`` at the commit before the table existed (when the
  scheduler called ``FaultPlan.resource_factor`` directly).  Each hash
  covers the sorted ``(request_id, outcome, repr(latency))`` rows of the
  report and every ``plan.injected`` record, so a reused answer that
  differs from a fresh one, or a record that moves, changes it.
* **Exactness.**  Two plans built from the same drawn rules and driven
  by the same drawn script, one asked through ``_capacity_hook`` and one
  through ``resource_factor``, give equal answers, equal records and
  equal ``QueryFault``s.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import DegradeLink, FailQuery, FaultPlan, QueryFault
from repro.serve import PlanCache, QueryService, ServicePolicy, TenantQuota
from repro.serve.service import _capacity_hook

# ----------------------------------------------------------------------
# Pins: serve_overload's policy and fault plan on a 300-request mix
# ----------------------------------------------------------------------
REQUESTS = 300
MIX = ("q6", "join-a", "join-b", "join-sel", "star")
TENANTS = ("alpha", "beta", "gamma", "delta")
MEAN_GAP = 0.30

#: variant -> (rules added to the overload plan, warm the plan cache
#: first).  ``times2``'s rule would spend both fires pricing the mix's
#: cache misses, so its cache is filled before the plan is installed and
#: the rule fires on its first two links mid-pass; its last fire changes
#: both links' answers.  ``gpu0``'s rule never matches a memory-region
#: name while pricing and degrades only the links touching ``gpu0``.
VARIANTS = {
    "overload": ((), False),
    "times2": ((DegradeLink(factor=0.5, times=2),), True),
    "gpu0": ((DegradeLink(factor=0.5, src_memory="gpu0"),), False),
}

#: (variant, seed) -> sha256 recorded with the scheduler calling
#: ``plan.resource_factor`` directly.
PINNED = {
    ("overload", 11): "6943a3e10602eee24b9d8d9512fef357b6a8e89b5eb9ed60f71a1542a0d36bfa",
    ("overload", 29): "523aae21524f9e769b075b9127a760c7822909513fdbe57023b8be95120062ea",
    ("times2", 11): "d9cc3b7f1a71a6761c22012ac289ef67069055e8c71e4d297e4fd189d3194c86",
    ("gpu0", 29): "5b4f2e0f4ad2a77cb1cf9fabc72298606917666ce1feabdbe8bcbac62093a838",
}


def _overload_service(cache=None):
    return QueryService(
        "ibm-ac922",
        cache=cache,
        quotas={"delta": TenantQuota(max_in_flight=1)},
        policy=ServicePolicy(
            max_active=8,
            queue_depth=16,
            stretch_limit=6.0,
            default_deadline=2.5,
            breaker_threshold=4,
            breaker_cooldown=3.0,
        ),
    )


def _warm_cache():
    """A plan cache holding every mix workload, priced with no plan."""
    cache = PlanCache()
    service = QueryService("ibm-ac922", cache=cache)
    for workload in MIX:
        service.submit("warm", workload, 0.0)
    service.serve()
    return cache


def _overload_plan(seed, extra):
    return FaultPlan(
        seed,
        rules=[
            FailQuery(probability=0.15, attempts=(0,), times=None),
            FailQuery(workload="join-sel", probability=0.15, attempts=None, times=None),
            DegradeLink(factor=0.7, times=None),
            *extra,
        ],
    )


def _serve(variant, seed):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(MEAN_GAP, size=REQUESTS))
    picks = rng.integers(0, len(MIX), size=REQUESTS)
    extra, warm = VARIANTS[variant]
    service = _overload_service(_warm_cache() if warm else None)
    for i in range(REQUESTS):
        service.submit(TENANTS[i % len(TENANTS)], MIX[int(picks[i])], float(arrivals[i]))
    plan = _overload_plan(seed, extra)
    with plan.install():
        report = service.serve()
    return report, plan


def _case_digest(report, plan):
    rows = [
        (q.request.request_id, q.outcome, repr(q.latency))
        for bucket in (report.served, report.deadline_exceeded, report.failed)
        for q in bucket
    ]
    rows += [(r.request.request_id, "rejected", "") for r in report.rejections]
    rows += [(s.request.request_id, f"shed:{s.reason}", repr(s.at)) for s in report.shed]
    injected = [r.to_dict() for r in plan.injected]
    return hashlib.sha256(repr((sorted(rows), injected)).encode()).hexdigest()


class TestPinnedAgainstDirectCalls:
    def test_every_case_matches_its_pin(self):
        for (variant, seed), pinned in PINNED.items():
            report, plan = _serve(variant, seed)
            resource_records = [r for r in plan.injected if r.site["kind"] == "resource"]
            assert resource_records, (variant, seed)
            for rule in VARIANTS[variant][0]:
                fires = [r for r in resource_records if r.rule == repr(rule)]
                assert fires, (variant, rule)
                if rule.times is not None:  # spent mid-pass
                    assert len(fires) == rule.times, (variant, rule)
            assert report.conservation(REQUESTS)
            assert _case_digest(report, plan) == pinned, (variant, seed)


# ----------------------------------------------------------------------
# Exactness: the hook answers what resource_factor would, call for call
# ----------------------------------------------------------------------
RESOURCES = (
    "link:nvlink2[gpu0<->cpu0]",
    "link:xbus[cpu0<->cpu1]",
    "link:pcie3[gpu1<->cpu1]",
    "mem:gpu0-mem",
    "compute:cpu0",
)
LINK = RESOURCES[0]

degrade_rules = st.builds(
    DegradeLink,
    factor=st.sampled_from((0.25, 0.5, 0.7, 1.0)),
    times=st.sampled_from((None, 1, 2, 3)),
    src_memory=st.sampled_from((None, "gpu0", "cpu1")),
    method=st.sampled_from((None, "coherence")),
)
fail_rules = st.builds(
    FailQuery, probability=st.just(1.0), times=st.sampled_from((None, 1, 2))
)
capacity_steps = st.tuples(st.just("capacity"), st.sampled_from(RESOURCES))
# Capacity asks are drawn twice as often as each recording site, so runs
# of asks with no record between them (the table's hits) are common.
steps = st.one_of(
    capacity_steps,
    capacity_steps,
    st.tuples(
        st.just("bandwidth"),
        st.sampled_from(("coherence", "pipeline")),
        st.sampled_from(("cpu0-mem", "gpu0", "cpu1")),
    ),
    st.tuples(
        st.just("query"), st.integers(min_value=0, max_value=3), st.sampled_from((0, 1))
    ),
)


def _drive(plan, capacity, script):
    answers = []
    for step in script:
        if step[0] == "capacity":
            answers.append(capacity(step[1]))
        elif step[0] == "bandwidth":
            answers.append(plan.bandwidth_factor(step[1], "gpu0", step[2]))
        else:
            try:
                plan.check_query("q6", "alpha", step[1], 0, step[2])
                answers.append(None)
            except QueryFault as fault:
                answers.append(str(fault))
    return answers


class TestHookExactness:
    @settings(max_examples=150, deadline=None)
    # A times=1 rule spent by the hook's own call, and a times=2 rule
    # spent at the pricing site between two asks of a link.
    @example(
        rules=[DegradeLink(factor=0.5, times=1)],
        script=[("capacity", LINK), ("capacity", LINK)],
    )
    @example(
        rules=[DegradeLink(factor=0.5, times=2)],
        script=[
            ("capacity", LINK),
            ("capacity", LINK),
            ("bandwidth", "coherence", "cpu0-mem"),
            ("capacity", LINK),
        ],
    )
    @given(
        rules=st.lists(st.one_of(degrade_rules, fail_rules), min_size=1, max_size=4),
        script=st.lists(steps, max_size=60),
    )
    def test_hook_answers_equal_direct_calls(self, rules, script):
        direct = FaultPlan(7, rules)
        hooked = FaultPlan(7, rules)
        asked = []
        resource_factor = hooked.resource_factor

        def counted(resource):
            asked.append((resource, len(hooked.injected)))
            return resource_factor(resource)

        hooked.resource_factor = counted
        assert _drive(hooked, _capacity_hook(hooked), script) == _drive(
            direct, direct.resource_factor, script
        )
        assert [r.to_dict() for r in hooked.injected] == [
            r.to_dict() for r in direct.injected
        ]
        assert len(asked) == len(set(asked))
