"""What a planning pass's candidates share is lowered once, unchanged.

Within one ``optimize`` call the placement candidates of a transfer
method read the same R and S bytes, so :func:`repro.plan.ingest.ingest`
answers them from a table on the cost model.  The pins below were
recorded before that table existed:

* ``SECTIONS_SHA256`` covers every candidate's config, bound, seconds
  and rejection for each cold-planning workload on both machines;
* ``DEGRADED_*`` covers the fault records a ``DegradeLink`` plan
  collects while the AC922 plans workload A.  A degraded ingest records
  a fault on every call, so under an installed plan ``ingest`` must
  not answer from its table.

A topology change drops the table, as it drops the stream prices.
"""

import hashlib
import json

from repro.costmodel.model import CostModel
from repro.faults.plan import DegradeLink, FaultPlan
from repro.hardware.specs import NVLINK2, PCIE3, UPI, V100_PCIE, XEON_6126
from repro.hardware.topology import Machine
from repro.logical import optimize
from repro.logical.explain import MACHINES, WORKLOADS, explain_workload
from repro.plan.ingest import ingest
from repro.utils.units import GIB

#: every cold-planning workload on both machines; ``star`` is
#: typed-infeasible on the PCI-e machine.
PAIRS = [
    (workload, machine)
    for machine in MACHINES
    for workload in WORKLOADS
    if (workload, machine) != ("star", "intel-xeon-v100")
]

#: sha256 of ``{"<workload>@<machine>": OptimizerResult.section()}``.
SECTIONS_SHA256 = (
    "f3ee8ec2842f48b10693e973904a0e26060a4432858712adac56219c9c566a66"
)

#: sha256 of the ``plan.injected`` records and their count after
#: planning ``join-a`` on the AC922 under ``DegradeLink(0.5)``.
DEGRADED_SHA256 = (
    "f5942a9d16a2f52b6aabd5bc46dc83f32c05386bcde0b087bfaa51fdecbed817"
)
DEGRADED_RECORDS = 96


def sha256(document):
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def test_every_decision_is_unchanged():
    sections = {
        f"{workload}@{machine}": explain_workload(workload, machine).section()
        for workload, machine in PAIRS
    }
    assert sha256(sections) == SECTIONS_SHA256


def test_a_degraded_link_records_every_ingest():
    plan = FaultPlan(seed=0, rules=[DegradeLink(factor=0.5, times=None)])
    with plan.install():
        explain_workload("join-a", "ibm-ac922")
    records = [record.to_dict() for record in plan.injected]
    assert len(records) == DEGRADED_RECORDS
    assert sha256(records) == DEGRADED_SHA256


def _pcie_machine() -> Machine:
    """A Xeon pair whose GPU hangs off the far socket: the inputs in
    ``cpu0-mem`` are two hops away until a direct link is added."""
    machine = Machine(name="intel-xeon-v100")
    machine.add_cpu("cpu0", XEON_6126, "cpu0-mem")
    machine.add_cpu("cpu1", XEON_6126, "cpu1-mem")
    machine.connect("cpu0", "cpu1", UPI)
    machine.add_gpu("gpu0", V100_PCIE, "gpu0-mem")
    machine.connect("gpu0", "cpu1", PCIE3)
    return machine


def test_a_topology_change_rederives_ingest():
    machine = _pcie_machine()
    model = CostModel(machine)
    read = ("pageable_copy", "gpu0", "cpu0-mem", 2 * GIB, "read R")
    before = ingest(model, *read)
    assert ingest(model, *read) == before
    machine.add_gpu("gpu1", V100_PCIE, "gpu1-mem")
    machine.connect("gpu1", "cpu0", PCIE3)
    machine.connect("gpu0", "cpu0", NVLINK2)
    after = ingest(model, *read)
    assert after == ingest(CostModel(machine), *read)
    assert after != before
    assert ingest(model, "zero_copy", "gpu1", "cpu0-mem", GIB, "read S") == (
        ingest(CostModel(machine), "zero_copy", "gpu1", "cpu0-mem", GIB, "read S")
    )


def test_a_second_optimize_after_a_topology_change_plans_afresh():
    _description, build_query = WORKLOADS["join-a"]
    machine = _pcie_machine()
    first = optimize(build_query(), machine, label="join-a").section()
    machine.add_gpu("gpu1", V100_PCIE, "gpu1-mem")
    machine.connect("gpu1", "cpu1", PCIE3)
    machine.connect("gpu0", "cpu0", NVLINK2)
    second = optimize(build_query(), machine, label="join-a").section()
    fresh = _pcie_machine()
    fresh.add_gpu("gpu1", V100_PCIE, "gpu1-mem")
    fresh.connect("gpu1", "cpu1", PCIE3)
    fresh.connect("gpu0", "cpu0", NVLINK2)
    assert second == optimize(build_query(), fresh, label="join-a").section()
    assert second != first
