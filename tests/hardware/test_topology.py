"""Machine topology and routing (Figure 4)."""

import pytest

from repro.hardware.specs import NVLINK2, POWER9, V100_SXM2
from repro.hardware.topology import Machine, TopologyError, ibm_ac922, intel_xeon_v100


class TestAc922:
    def test_has_two_cpus_two_gpus(self, ibm):
        assert len(ibm.cpus()) == 2
        assert len(ibm.gpus()) == 2

    def test_hop_counts_match_figure4a(self, ibm):
        # GPU0's data access paths: 0, 1, 2, 3 hops.
        assert ibm.hops("gpu0", "gpu0-mem") == 0
        assert ibm.hops("gpu0", "cpu0-mem") == 1
        assert ibm.hops("gpu0", "cpu1-mem") == 2
        assert ibm.hops("gpu0", "gpu1-mem") == 3

    def test_gpu1_hop_counts_mirror_figure4a(self, ibm):
        # GPU1 sits on the other socket: its paths mirror GPU0's.
        assert ibm.hops("gpu1", "gpu1-mem") == 0
        assert ibm.hops("gpu1", "cpu1-mem") == 1
        assert ibm.hops("gpu1", "cpu0-mem") == 2
        assert ibm.hops("gpu1", "gpu0-mem") == 3

    def test_gpu_link_is_nvlink(self, ibm):
        assert ibm.gpu_link("gpu0").spec.name == "nvlink2"

    def test_coherent_gpu_access(self, ibm):
        assert ibm.coherent_gpu_access

    def test_path_composition(self, ibm):
        path = ibm.path("gpu0", "gpu1-mem")
        assert [link.spec.name for link in path] == ["nvlink2", "xbus", "nvlink2"]

    def test_one_gpu_variant(self, ibm_one_gpu):
        assert len(ibm_one_gpu.gpus()) == 1

    def test_four_gpu_variant_alternates_sockets(self):
        machine = ibm_ac922(gpus=4)
        assert len(machine.gpus()) == 4
        assert machine.gpu_link("gpu0").connects("gpu0", "cpu0")
        assert machine.gpu_link("gpu1").connects("gpu1", "cpu1")
        assert machine.gpu_link("gpu2").connects("gpu2", "cpu0")
        assert machine.gpu_link("gpu3").connects("gpu3", "cpu1")

    def test_four_gpu_mesh_is_fully_connected(self):
        machine = ibm_ac922(gpus=4, gpu_mesh=True)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert machine.hops(f"gpu{i}", f"gpu{j}-mem") == 1

    def test_invalid_gpu_count(self):
        with pytest.raises(TopologyError):
            ibm_ac922(gpus=5)


class TestIntelMachine:
    def test_pcie_gpu(self, intel):
        assert intel.gpu_link("gpu0").spec.name == "pcie3"

    def test_not_coherent(self, intel):
        assert not intel.coherent_gpu_access

    def test_remote_memory_via_upi(self, intel):
        path = intel.path("gpu0", "cpu1-mem")
        assert [link.spec.name for link in path] == ["pcie3", "upi"]


class TestRouting:
    def test_local_memory_has_empty_path(self, ibm):
        assert ibm.path("cpu0", "cpu0-mem") == []

    def test_unknown_processor_raises(self, ibm):
        with pytest.raises(TopologyError):
            ibm.path("gpu9", "cpu0-mem")

    def test_unknown_memory_raises(self, ibm):
        with pytest.raises(TopologyError):
            ibm.path("gpu0", "nowhere")

    def test_unroutable_raises(self):
        machine = Machine(name="islands")
        machine.add_cpu("cpu0", POWER9, "cpu0-mem")
        machine.add_gpu("gpu0", V100_SXM2, "gpu0-mem")
        # no connect() call: no path between them
        with pytest.raises(TopologyError):
            machine.path("gpu0", "cpu0-mem")

    def test_nearest_cpu_memory(self, ibm):
        assert ibm.nearest_cpu_memory("gpu0").name == "cpu0-mem"
        assert ibm.nearest_cpu_memory("gpu1").name == "cpu1-mem"

    def test_cpu_memories_by_distance(self, ibm):
        ordered = [m.name for m in ibm.cpu_memories_by_distance("gpu0")]
        assert ordered == ["cpu0-mem", "cpu1-mem"]

    def test_cpu_memories_by_distance_from_gpu1(self, ibm):
        ordered = [m.name for m in ibm.cpu_memories_by_distance("gpu1")]
        assert ordered == ["cpu1-mem", "cpu0-mem"]


class TestConstruction:
    def test_duplicate_processor_rejected(self):
        machine = Machine(name="dup")
        machine.add_cpu("cpu0", POWER9, "m0")
        with pytest.raises(TopologyError):
            machine.add_cpu("cpu0", POWER9, "m1")

    def test_duplicate_memory_rejected(self):
        machine = Machine(name="dup")
        machine.add_cpu("cpu0", POWER9, "m0")
        with pytest.raises(TopologyError):
            machine.add_cpu("cpu1", POWER9, "m0")

    def test_connect_unknown_endpoint_rejected(self):
        machine = Machine(name="bad")
        machine.add_cpu("cpu0", POWER9, "m0")
        with pytest.raises(TopologyError):
            machine.connect("cpu0", "ghost", NVLINK2)

    def test_indexing_helpers(self, ibm):
        assert ibm.cpu(0).name == "cpu0"
        assert ibm.gpu(1).name == "gpu1"
        with pytest.raises(TopologyError):
            ibm.gpu(7)

    def test_gpu_link_rejects_cpu(self, ibm):
        with pytest.raises(TopologyError):
            ibm.gpu_link("cpu0")


class TestRouteMemo:
    """Routes are memoised per machine and dropped on every change."""

    def test_path_reflects_a_later_connect(self):
        machine = Machine(name="m")
        machine.add_cpu("cpu0", POWER9, "cpu0-mem")
        machine.add_cpu("cpu1", POWER9, "cpu1-mem")
        machine.add_gpu("gpu0", V100_SXM2, "gpu0-mem")
        machine.connect("gpu0", "cpu0", NVLINK2)
        machine.connect("cpu0", "cpu1", NVLINK2)
        assert machine.hops("gpu0", "cpu1-mem") == 2
        before = machine.generation
        machine.connect("gpu0", "cpu1", NVLINK2)
        assert machine.generation == before + 1
        assert machine.hops("gpu0", "cpu1-mem") == 1

    def test_path_reflects_a_later_add_cpu(self):
        machine = Machine(name="m")
        machine.add_cpu("cpu0", POWER9, "cpu0-mem")
        with pytest.raises(TopologyError):
            machine.path("cpu0", "cpu1-mem")
        before = machine.generation
        machine.add_cpu("cpu1", POWER9, "cpu1-mem")
        assert machine.generation == before + 1
        with pytest.raises(TopologyError, match="no path"):
            machine.path("cpu0", "cpu1-mem")
        machine.connect("cpu0", "cpu1", NVLINK2)
        assert [link.spec.name for link in machine.path("cpu0", "cpu1-mem")] == [
            "nvlink2"
        ]

    def test_mutating_a_returned_path_does_not_leak(self, ibm):
        first = ibm.path("gpu0", "gpu1-mem")
        first.clear()
        assert len(ibm.path("gpu0", "gpu1-mem")) == 3
        local = ibm.path("cpu0", "cpu0-mem")
        local.append(ibm.links[0])
        assert ibm.path("cpu0", "cpu0-mem") == []

    def test_every_call_returns_a_fresh_list(self, ibm):
        assert ibm.path("gpu0", "cpu1-mem") is not ibm.path("gpu0", "cpu1-mem")

    def test_memoised_route_equals_a_fresh_machine(self):
        warm = ibm_ac922(gpus=4, gpu_mesh=True)
        for proc in warm.processors:
            for mem in warm.memories:
                warm.path(proc, mem)
        cold = ibm_ac922(gpus=4, gpu_mesh=True)
        for proc in warm.processors:
            for mem in warm.memories:
                assert [l.name for l in warm.path(proc, mem)] == [
                    l.name for l in cold.path(proc, mem)
                ]
