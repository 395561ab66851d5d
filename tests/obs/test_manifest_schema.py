"""Every manifest section a run writes matches ``MANIFEST_SCHEMA``.

Consumers parse manifests by key (bench baseline diffs, the figure
scripts, CI's changelog guard), so a key a writer adds without
declaring it is silent schema drift.  This test builds every declared
section for real and compares keys in both directions:

* a ``run_all --quick`` manifest document (``__document__``,
  ``__top__``, ``phases``, ``machine``);
* a short serving pass (``serving`` and the served ``optimizer``);
* a chaos join under a :mod:`repro.faults.scenarios` plan
  (``resilience``);
* an :meth:`OptimizerResult.section` (``optimizer``).

The declaration is sealed by its ``version`` and ``checksum``: any
key-set edit changes the checksum, which must be updated together with
a ``MANIFEST_SCHEMA_VERSION`` bump.
"""

import hashlib
import json

import pytest

from repro.bench import run_all
from repro.core.join.nopa import NoPartitioningJoin
from repro.faults import RetryPolicy, chaos_plan
from repro.hardware.topology import ibm_ac922
from repro.logical.explain import explain_workload
from repro.obs import Observability
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
)
from repro.serve import QueryService, ServingRecord
from repro.workloads.builders import workload_a

SCALE = 2.0**-14
SECTIONS = MANIFEST_SCHEMA["sections"]


def schema_checksum(sections):
    """BLAKE2b (8 bytes) over the sorted-key JSON of ``sections``."""
    canonical = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def assert_matches_schema(section, instances):
    """Each emitted ``section`` dict has exactly the declared keys."""
    spec = SECTIONS[section]
    declared = set(spec["keys"])
    assert instances, f"no run emitted section '{section}'"
    for instance in instances:
        extra = sorted(set(instance) - declared)
        missing = sorted(declared - set(instance))
        assert not extra, (
            f"section '{section}' ({spec['writer']}) emits undeclared "
            f"key(s) {extra}: declare them in MANIFEST_SCHEMA, update the "
            "checksum and bump MANIFEST_SCHEMA_VERSION"
        )
        assert not missing, (
            f"section '{section}' ({spec['writer']}) never emits declared "
            f"key(s) {missing}: stale schema entry"
        )


def _run_all_document(path):
    run_all.main(
        ["--quick", "--manifest-out", str(path), "--scale", str(SCALE)]
    )
    return json.loads(path.read_text())


def _served_manifests():
    service = QueryService()
    service.submit("alpha", "join-b", 0.0)
    service.submit("alpha", "q6", 0.5)
    return [query.manifest for query in service.serve().served]


def _chaos_manifest():
    machine = ibm_ac922()
    workload = workload_a(scale=SCALE)
    join = NoPartitioningJoin(
        machine,
        transfer_method="coherence",
        backend="threads",
        workers=2,
        exec_morsel_tuples=1024,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0),
        obs=Observability.create(),
    )
    plan = chaos_plan(101)
    with plan.install():
        result = join.run(workload.r, workload.s)
    manifest = build_manifest(
        kind="nopa[chaos]",
        machine=machine,
        phases=[result.build_cost, result.probe_cost],
        obs=join.obs,
        resilience=join.last_resilience.section(plan),
    )
    return manifest.to_dict()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Section name -> every dict a real run emitted for it."""
    document = _run_all_document(
        tmp_path_factory.mktemp("manifest") / "run_all.json"
    )
    runs = document["runs"] + _served_manifests() + [_chaos_manifest()]
    sections = {
        "__document__": [document],
        "__top__": runs,
        "phases": [phase for run in runs for phase in run["phases"]],
        "machine": [run["machine"] for run in runs],
    }
    for name in ("resilience", "optimizer", "serving"):
        sections[name] = [run[name] for run in runs if run[name] is not None]
    sections["optimizer"].append(explain_workload("join-a").section())
    return sections


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_emitted_keys_equal_declared_keys(emitted, section):
    assert_matches_schema(section, emitted[section])


def test_version_and_checksum_seal_the_declaration():
    assert MANIFEST_SCHEMA["version"] == MANIFEST_SCHEMA_VERSION
    assert MANIFEST_SCHEMA["checksum"] == schema_checksum(SECTIONS), (
        "MANIFEST_SCHEMA key sets changed: set checksum to "
        f"{schema_checksum(SECTIONS)!r}, bump MANIFEST_SCHEMA_VERSION and "
        "record the bump in the docs/observability.md changelog"
    )


def test_undeclared_key_from_a_writer_is_caught(monkeypatch):
    real_section = ServingRecord.section

    def section_with_extra_key(self):
        return {**real_section(self), "queue_depth": 0}

    monkeypatch.setattr(ServingRecord, "section", section_with_extra_key)
    served = [manifest["serving"] for manifest in _served_manifests()]
    with pytest.raises(AssertionError, match=(
        r"section 'serving' \(ServingRecord\.section\) emits undeclared "
        r"key\(s\) \['queue_depth'\]"
    )):
        assert_matches_schema("serving", served)


def test_declared_key_no_writer_emits_is_caught(emitted, monkeypatch):
    monkeypatch.setitem(
        SECTIONS["machine"], "keys", SECTIONS["machine"]["keys"] + ["numa"]
    )
    with pytest.raises(AssertionError, match=(
        r"section 'machine' \(machine_summary\) never emits declared "
        r"key\(s\) \['numa'\]"
    )):
        assert_matches_schema("machine", emitted["machine"])
