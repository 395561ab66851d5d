"""Each distinct stream is priced once per cost model and topology.

The memo must be invisible: a warm cost model prices every stream
exactly as a cold one does, a topology change drops it, and a caller
mutating what :meth:`CostModel.stream_occupancy` returned cannot
corrupt it.
"""

from typing import List, Tuple


from repro.costmodel.access import AccessPattern, Stream, random_stream, seq_stream
from repro.costmodel.model import CostModel
from repro.hardware.cache import HotSetProfile
from repro.hardware.specs import NVLINK2, POWER9, V100_SXM2
from repro.hardware.topology import Machine
from repro.utils.units import GIB
from tests.plan.golden_cases import CASES


def _machine() -> Machine:
    machine = Machine(name="m")
    machine.add_cpu("cpu0", POWER9, "cpu0-mem")
    machine.add_cpu("cpu1", POWER9, "cpu1-mem")
    machine.add_gpu("gpu0", V100_SXM2, "gpu0-mem")
    machine.connect("gpu0", "cpu0", NVLINK2)
    machine.connect("cpu0", "cpu1", NVLINK2)
    return machine


def test_streams_and_hot_sets_are_hashable():
    hot = HotSetProfile.zipf(1000, 1.5)
    stream = random_stream("gpu0", "cpu0-mem", 1e6, 8, 1e5, hot_set=hot)
    assert hash(stream) == hash(
        random_stream("gpu0", "cpu0-mem", 1e6, 8, 1e5, hot_set=hot)
    )
    assert {stream: 1}[random_stream("gpu0", "cpu0-mem", 1e6, 8, 1e5, hot_set=hot)]


def test_price_after_connect_matches_a_fresh_cost_model():
    machine = _machine()
    model = CostModel(machine)
    streams = [
        seq_stream("gpu0", "cpu1-mem", GIB),
        random_stream("gpu0", "cpu1-mem", 1e8, 8, 4 * GIB),
    ]
    warm = [model.stream_occupancy(s) for s in streams]
    machine.connect("gpu0", "cpu1", NVLINK2)
    fresh = CostModel(machine)
    for stream, before in zip(streams, warm):
        after = model.stream_occupancy(stream)
        assert repr(after) == repr(fresh.stream_occupancy(stream))
        assert after != before  # one hop fewer: a different price


def test_price_after_add_cpu_matches_a_fresh_cost_model():
    machine = _machine()
    model = CostModel(machine)
    stream = seq_stream("gpu0", "cpu1-mem", GIB)
    model.stream_occupancy(stream)
    machine.add_cpu("cpu2", POWER9, "cpu2-mem")
    machine.connect("cpu2", "gpu0", NVLINK2)
    assert repr(model.stream_occupancy(stream)) == repr(
        CostModel(machine).stream_occupancy(stream)
    )


def test_mutating_a_returned_occupancy_does_not_leak(ibm):
    model = CostModel(ibm)
    stream = seq_stream("gpu0", "cpu0-mem", GIB)
    first = model.stream_occupancy(stream)
    want = dict(first)
    first.clear()
    first["mem:bogus"] = 1.0
    assert model.stream_occupancy(stream) == want
    assert model.stream_occupancy(stream) is not model.stream_occupancy(stream)


def _golden_streams(monkeypatch) -> List[Tuple[CostModel, Stream]]:
    seen: List[Tuple[CostModel, Stream]] = []
    priced = CostModel._stream_occupancy

    def recording(self, stream):
        seen.append((self, stream))
        return priced(self, stream)

    with monkeypatch.context() as patch:
        patch.setattr(CostModel, "_stream_occupancy", recording)
        for case in CASES.values():
            case()
    return seen


def test_golden_streams_price_alike_with_and_without_a_warm_memo(monkeypatch):
    seen = _golden_streams(monkeypatch)
    assert len(CASES) == 15
    patterns = {stream.pattern for _model, stream in seen}
    assert patterns == set(AccessPattern)
    for model, stream in seen:
        warm = model.stream_occupancy(stream)
        cold = CostModel(model.machine, model.calibration).stream_occupancy(
            stream
        )
        assert repr(warm) == repr(cold), stream
