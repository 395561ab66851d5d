"""Serving under a fault plan: capacity answers reused, outcomes pinned.

``QueryService.serve`` answers the scheduler's capacity hook from a
per-pass table keyed by ``plan.link_faults``, the number of
``DegradeLink`` records so far, and the hook exposes that count as
``epoch()``.  The scheduler asks the hook for a phase's factors once
per epoch.  These checks guard it:

* **Pins.**  ``PINNED`` holds one sha256 per case, recorded by
  ``_case_digest`` at the commit before the table existed (when the
  scheduler called ``FaultPlan.resource_factor`` directly).  Each hash
  covers the sorted ``(request_id, outcome, repr(latency))`` rows of the
  report and every ``plan.injected`` record, so a reused answer that
  differs from a fresh one, or a record that moves, changes it.
* **Exactness.**  Two plans built from the same drawn rules and driven
  by the same drawn script, one asked through ``_capacity_hook`` and one
  through ``resource_factor``, give equal answers, equal records and
  equal ``QueryFault``s, also when asks are skipped while the epoch
  holds; the epoch moves exactly when a ``DegradeLink`` record lands.
* **The scheduler's side.**  Generated scheduler scenarios decide the
  same with a hook that declares an epoch as with the same hook
  without one, and the pinned overload pass asks the hook at most
  ``MAX_HOOK_CALLS`` times.
"""

import hashlib
import random
import zlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import DegradeLink, FailQuery, FaultPlan, QueryFault
from repro.serve import PlanCache, QueryService, ServicePolicy, TenantQuota
from repro.serve import service as service_module
from repro.serve.service import _capacity_hook

from tests.serve.scenarios import build, fingerprint

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


class TestEpochContract:
    @settings(max_examples=150, deadline=None)
    @example(
        rules=[DegradeLink(factor=0.5, times=2), FailQuery(probability=1.0)],
        script=[
            ("capacity", LINK),
            ("query", 0, 0),
            ("capacity", LINK),
            ("bandwidth", "coherence", "cpu0-mem"),
            ("capacity", LINK),
        ],
    )
    @given(
        rules=st.lists(st.one_of(degrade_rules, fail_rules), min_size=1, max_size=4),
        script=st.lists(steps, max_size=60),
    )
    def test_epoch_moves_exactly_on_link_records(self, rules, script):
        direct = FaultPlan(7, rules)
        hooked = FaultPlan(7, rules)
        capacity = _capacity_hook(hooked)
        # What the scheduler keeps: each resource's last answer and the
        # epoch it was asked at, stored only if asking moved nothing.
        kept = {}

        def skipping(resource):
            at = capacity.epoch()
            if resource in kept and kept[resource][0] == at:
                return kept[resource][1]
            factor = capacity(resource)
            if capacity.epoch() == at:
                kept[resource] = (at, factor)
            return factor

        for step in script:
            epoch, records = capacity.epoch(), len(hooked.injected)
            assert _drive(hooked, skipping, [step]) == _drive(
                direct, direct.resource_factor, [step]
            )
            links = sum(r.kind == "degraded_link" for r in hooked.injected[records:])
            assert capacity.epoch() - epoch == links, step
        assert [r.to_dict() for r in hooked.injected] == [
            r.to_dict() for r in direct.injected
        ]


class _EpochHook:
    """Capacity answers that depend only on (resource, epoch).

    The epoch bumps at drawn counts of *fresh* asks: the first ask of a
    resource at an epoch.  A scheduler that skips asks only while the
    epoch holds skips no fresh ask, so the bumps land at the same point
    of the run whether or not the scheduler knows the epoch.
    """

    def __init__(self, seed, log):
        rng = random.Random(f"epoch:{seed}")
        self.seed = seed
        self.log = log
        self.bumps = set(rng.sample(range(1, 30), rng.randint(1, 6)))
        self.era = 0
        self.fresh = 0
        self.seen = set()
        self.asks = 0

    def epoch(self):
        return self.era

    def __call__(self, resource):
        self.log.append(("capacity", resource))
        self.asks += 1
        if (resource, self.era) not in self.seen:
            self.seen.add((resource, self.era))
            self.fresh += 1
            if self.fresh in self.bumps:
                self.era += 1
        pick = zlib.crc32(f"{self.seed}:{resource}:{self.era}".encode()) % 3
        return (1.0, 0.5, 0.25)[pick]


def _epoch_run(seed, declare_epoch):
    scenario = build(seed)
    hook = _EpochHook(seed, scenario.log)
    scenario.hooks["capacity"] = hook if declare_epoch else (lambda r: hook(r))
    outcome = scenario.run()
    lines = [
        line
        for line in fingerprint(scenario, outcome)
        if not line.startswith("('capacity'")
    ]
    return lines, hook


class TestSchedulerSkipsAsksWhileTheEpochHolds:
    def test_generated_scenarios_decide_as_without_an_epoch(self):
        asked = {True: 0, False: 0}
        bumped = 0
        for seed in range(300):
            with_epoch, hook = _epoch_run(seed, True)
            without, plain = _epoch_run(seed, False)
            assert with_epoch == without, seed
            assert (hook.era, hook.fresh) == (plain.era, plain.fresh), seed
            asked[True] += hook.asks
            asked[False] += plain.asks
            bumped += hook.era > 0
        assert bumped > 100
        assert 10 * asked[True] < asked[False]


#: capacity-hook calls of the ``("overload", 11)`` pass; each call goes to
#: ``resource_factor`` only when the epoch moved since that resource's
#: last answer.
MAX_HOOK_CALLS = 200
MAX_RESOURCE_FACTOR_CALLS = 50


def test_overload_pass_asks_the_hook_once_per_phase_and_epoch(monkeypatch):
    calls = {"hook": 0, "resource_factor": 0}
    resource_factor = FaultPlan.resource_factor
    capacity_hook = service_module._capacity_hook

    def counted_resource_factor(plan, resource):
        calls["resource_factor"] += 1
        return resource_factor(plan, resource)

    def counted_hook(plan):
        capacity = capacity_hook(plan)

        def counted(resource):
            calls["hook"] += 1
            return capacity(resource)

        counted.epoch = capacity.epoch
        return counted

    monkeypatch.setattr(FaultPlan, "resource_factor", counted_resource_factor)
    monkeypatch.setattr(service_module, "_capacity_hook", counted_hook)
    report, plan = _serve("overload", 11)
    assert _case_digest(report, plan) == PINNED[("overload", 11)]
    assert 0 < calls["hook"] <= MAX_HOOK_CALLS, calls
    assert 0 < calls["resource_factor"] <= MAX_RESOURCE_FACTOR_CALLS, calls
