"""The optimizer re-derives the paper's choices on canonical workloads.

These are the decision-level acceptance tests: at paper *modeled*
scale, the cheapest candidate must land where the paper's measurements
landed — Coherence on NVLink 2.0, Zero-Copy once coherence is off the
table (Table 1), hash table in GPU memory while it fits (Figure 8),
Het helping only when the CPU has work it is good at (Figure 13), and
star probes ordered most-selective-first.
"""

import pytest

from repro.hardware import ibm_ac922
from repro.logical import LogicalError, optimize, scan
from repro.logical.explain import WORKLOADS, explain_workload
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest


# ----------------------------------------------------------------------
# Paper re-derivations
# ----------------------------------------------------------------------
def test_ac922_workload_a_chooses_coherence_gpu_table():
    """Workload A on the AC922: NVLink coherence beats every copy
    method, and the 2 GiB table belongs in GPU memory (Figures 7/8)."""
    result = explain_workload("join-a", "ibm-ac922")
    chosen = result.chosen.config
    assert chosen.strategy == "single"
    assert chosen.processor == "gpu0"
    assert chosen.transfer_method == "coherence"
    assert chosen.placement is not None and chosen.placement.label == "gpu"
    # The full Table-1 x placement space was actually enumerated.
    assert len(result.candidates) > 40
    assert result.chosen.viable


def test_ac922_workload_b_chooses_gpu_het():
    """Workload B's cache-resident build side lets the CPUs contribute:
    the cooperative GPU+Het strategy wins (Figure 13)."""
    result = explain_workload("join-b", "ibm-ac922")
    chosen = result.chosen.config
    assert chosen.strategy == "gpu+het"
    assert chosen.transfer_method == "coherence"
    assert chosen.workers  # cooperative strategies carry a worker set


def test_intel_rejects_coherence_and_falls_back_to_zero_copy():
    """On the PCI-e machine every coherence-dependent candidate is
    rejected with a reason, and Zero-Copy is the best pull method
    left (Table 1)."""
    result = explain_workload("join-a", "intel-xeon-v100")
    assert result.chosen.config.transfer_method == "zero_copy"
    rejected = result.rejected
    assert len(rejected) == 8
    for candidate in rejected:
        assert candidate.rejected
        assert "coheren" in candidate.rejected.lower()
    # No viable GPU candidate sneaks coherence past the support check
    # (CPU-only ingest never crosses the interconnect, so those
    # candidates keep the nominal method without using it).
    for candidate in result.candidates:
        if candidate.viable and candidate.config.processor == "gpu0":
            assert candidate.config.transfer_method != "coherence"


def test_star_probes_most_selective_dimension_first():
    """Join ordering: the 20%-selective dimension kills rows early, so
    the chosen permutation probes it first."""
    result = explain_workload("star", "ibm-ac922")
    chosen = result.chosen.config
    assert chosen.strategy == "gpu+het"
    assert chosen.join_order == (2, 1, 0)


def test_capped_star_orders_probe_the_selective_dimension_first():
    """Five dimensions have 120 orders and the optimizer keeps 24: they
    must start with the 5 %-selective dimension, not with dimension 0."""
    import numpy as np

    from repro.data.relation import Relation

    selectivity = (0.9, 0.9, 0.9, 0.9, 0.05)
    rng = np.random.default_rng(7)
    keys = [f"d{i}_key" for i in range(len(selectivity))]
    fact = {key: rng.integers(0, 256, 1024).astype(np.int64) for key in keys}
    query = scan(fact, name="fact", modeled_rows=1 << 26, location="cpu0-mem")
    for key, hint in zip(keys, selectivity):
        dimension = Relation(
            name=key,
            key=np.arange(256, dtype=np.int64),
            payload=rng.integers(0, 100, 256).astype(np.int64),
            modeled_tuples=1 << 20,
        )
        query = query.join(
            scan(dimension),
            build_key="key",
            probe_key=key,
            selectivity=hint,
            output_prefix=f"{key}_",
        )
    result = optimize(query.aggregate(star=("d0_key_payload", "sum")), ibm_ac922())
    orders = [c.config.join_order for c in result.candidates]
    assert len(orders) == 24 and orders == sorted(orders)
    assert {order[0] for order in orders} == {4}
    assert result.chosen.config.join_order[0] == 4


def test_chosen_is_globally_cheapest():
    for name in ("join-a", "join-b", "q6", "star"):
        result = explain_workload(name, "ibm-ac922")
        viable = [c for c in result.candidates if c.viable]
        assert result.chosen in viable
        assert result.chosen.seconds == min(c.seconds for c in viable)


# ----------------------------------------------------------------------
# Registry and explain surface
# ----------------------------------------------------------------------
def test_registry_names_are_stable():
    assert sorted(WORKLOADS) == [
        "join-a",
        "join-b",
        "join-sel",
        "q6",
        "star",
    ]


def test_unknown_names_raise_keyerror():
    with pytest.raises(KeyError, match="unknown workload"):
        explain_workload("no-such-workload")
    with pytest.raises(KeyError, match="unknown machine"):
        explain_workload("q6", "no-such-machine")


def test_explain_lists_chosen_and_rejected():
    result = explain_workload("join-a", "intel-xeon-v100")
    text = result.explain()
    assert "chosen: " in text
    assert "rejected" in text
    assert "x " in text  # rejected candidates are marked
    assert "* " in text  # the winner is marked


def test_pruned_candidates_carry_their_bound():
    """Every compiled candidate is bounded; the ones never priced are
    reported as pruned, with a bound no lower than the winner's price."""
    result = explain_workload("join-a", "ibm-ac922")
    section = result.section()
    viable = [c for c in result.candidates if c.viable]
    assert section["pruned"] == len(result.pruned) > 0
    assert len(viable) + len(result.pruned) + len(result.rejected) == len(
        result.candidates
    )
    for candidate in result.pruned:
        assert candidate.seconds is None
        assert candidate.bound >= result.chosen.seconds
    for candidate in viable:
        assert candidate.bound <= candidate.seconds
    text = result.explain()
    assert f"{len(result.pruned)} pruned" in text
    assert text.count(" — pruned: bound ") == len(result.pruned)


def test_no_viable_plan_is_a_logical_error():
    """A query whose every candidate is rejected fails loudly."""
    import numpy as np

    from repro.data.relation import Relation
    from repro.hardware import intel_xeon_v100

    r = Relation(
        name="r",
        key=np.arange(256, dtype=np.int64),
        payload=np.arange(256, dtype=np.int64),
        modeled_tuples=1 << 20,
    )
    fact = {
        "k1": np.arange(256, dtype=np.int64),
        "k2": np.arange(256, dtype=np.int64),
    }
    query = (
        scan(fact, name="fact")
        .join(scan(r), build_key="key", probe_key="k1", output_prefix="a_")
        .join(scan(r), build_key="key", probe_key="k2", output_prefix="b_")
        .aggregate(agg=("a_payload", "sum"))
    )
    # Star shapes need coherent GPU access; the PCI-e machine has none.
    with pytest.raises(LogicalError, match="no viable physical plan"):
        optimize(query, intel_xeon_v100())


# ----------------------------------------------------------------------
# Manifest integration
# ----------------------------------------------------------------------
def test_section_round_trips_through_the_manifest():
    result = explain_workload("join-a", "ibm-ac922")
    section = result.section()
    schema_keys = MANIFEST_SCHEMA["sections"]["optimizer"]["keys"]
    assert sorted(section) == sorted(schema_keys)
    manifest = build_manifest(
        kind="optimizer-test",
        machine=ibm_ac922(),
        phases=[],
        optimizer=section,
    )
    dumped = manifest.to_dict()
    assert dumped["optimizer"] == section
    assert dumped["optimizer"]["strategy"] == "single"
    assert dumped["optimizer"]["considered"] == len(result.candidates)
