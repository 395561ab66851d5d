"""A 100,000-request serving pass through the public ``QueryService`` calls.

The traffic is the steady open loop of the host-speed benchmark: the
q6 / join-a / join-b mix, exponential gaps of mean 0.45 virtual s from
``numpy.random.default_rng(11)``, three round-robin tenants, plus an
eight-query burst at t = 0 from a tenant with a two-query quota.  It
runs to t ~ 45,021 s, far past ~16,385 s, where a completion tolerance
smaller than the clock's ULP once made the scheduler re-fire one event
for ever.  The pass runs in a child process, so its wall-clock time and
peak RSS are its own.  The child reads its peak from ``VmHWM`` in
``/proc/self/status``, not ``ru_maxrss``: Linux carries the parent's
high-water mark into ``ru_maxrss`` across the vfork+exec that starts
the child, so under a large pytest process ``ru_maxrss`` reports the
parent's peak.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REQUESTS = 100_000
#: the child measured 5.5-6.5 s on a 2-core Xeon host; the budget is
#: loose enough for a loaded CI runner, and a spinning scheduler blows it.
WALL_BUDGET_S = 30.0
#: the child's VmHWM measured 180 MiB on the same host, alone and under
#: a parent holding 400 MiB alike.
RSS_BUDGET_MIB = 320.0

_CHILD = """
import json, sys, time

import numpy as np

from repro.serve import QueryService, TenantQuota

requests = int(sys.argv[1])
start = time.perf_counter()
rng = np.random.default_rng(11)
gaps = rng.exponential(0.45, size=requests)
picks = rng.integers(0, 3, size=requests)
arrivals = np.cumsum(gaps)
service = QueryService("ibm-ac922", quotas={"zeta": TenantQuota(max_in_flight=2)})
for i in range(requests):
    mix = ("q6", "join-a", "join-b")[int(picks[i])]
    service.submit(("alpha", "beta", "gamma")[i % 3], mix, float(arrivals[i]))
for _ in range(8):
    service.submit("zeta", "join-b", 0.0)
report = service.serve()
seconds = time.perf_counter() - start
service.admission.audit()
with open("/proc/self/status") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "submitted": requests + 8,
    "conserved": report.conservation(requests + 8),
    "outcomes": report.outcome_counts(),
    "makespan": report.makespan,
    "last_arrival": float(arrivals[-1]),
    "seconds": seconds,
    "peak_rss_mib": hwm_kib / 1024,
}))
"""


def test_steady_traffic_past_the_old_spin_point():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(REQUESTS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10 * WALL_BUDGET_S,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["conserved"], result["outcomes"]
    assert result["outcomes"]["finished"] + result["outcomes"]["rejected"] == (
        result["submitted"]
    )
    assert result["outcomes"]["rejected"] > 0  # the greedy tenant's quota
    assert 16_385.0 < result["last_arrival"] <= result["makespan"]
    assert result["makespan"] < result["last_arrival"] + 60.0
    assert result["seconds"] < WALL_BUDGET_S, result["seconds"]
    assert result["peak_rss_mib"] < RSS_BUDGET_MIB, result["peak_rss_mib"]
