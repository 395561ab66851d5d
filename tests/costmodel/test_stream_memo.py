"""Each distinct stream is priced once per cost model and topology.

The memo must be invisible: a warm cost model prices every stream
exactly as a cold one does, a topology change drops it, and a caller
mutating what :meth:`CostModel.stream_occupancy` returned cannot
corrupt it.
"""

import pickle
from dataclasses import asdict, fields, replace
from typing import List, Tuple


from repro.costmodel.access import (
    AccessPattern,
    Stream,
    atomic_stream,
    random_stream,
    seq_stream,
)
from repro.costmodel.calibration import DEFAULT_CALIBRATION
from repro.costmodel.model import CostModel
from repro.hardware.cache import HotSetProfile
from repro.hardware.specs import NVLINK2, POWER9, V100_SXM2
from repro.hardware.topology import Machine
from repro.obs.manifest import calibration_summary
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


# ----------------------------------------------------------------------
# The hash a stream computes once
# ----------------------------------------------------------------------
HOT = HotSetProfile.zipf(1000, 1.5)


def _streams() -> List[Stream]:
    return [
        seq_stream("gpu0", "cpu0-mem", GIB, "read R", bandwidth_factor=0.5),
        random_stream("gpu0", "cpu1-mem", 1e6, 8, 1e5, hot_set=HOT, label="p"),
        atomic_stream("cpu0", "cpu0-mem", 1e6, 16, 4e6, contended=True),
    ]


def _field_hash(stream: Stream) -> int:
    """What the dataclass-generated ``__hash__`` returned."""
    return hash(tuple(getattr(stream, f.name) for f in fields(Stream)))


def test_equal_streams_hash_equal_and_as_the_dataclass_hash_did():
    for stream, twin in zip(_streams(), _streams()):
        assert stream == twin and stream is not twin
        assert hash(stream) == hash(twin) == _field_hash(stream)


def test_replaced_and_scaled_streams_hash_as_fresh_ones():
    for stream in _streams():
        relabelled = replace(stream, label="other")
        assert hash(relabelled) == _field_hash(relabelled)
        assert hash(relabelled) == hash(
            Stream(**{**_as_fields(stream), "label": "other"})
        )
        scaled = stream.scaled(3.0)
        assert hash(scaled) == _field_hash(scaled)
        assert hash(scaled) == hash(Stream(**_as_fields(scaled)))
    contended = atomic_stream("cpu0", "cpu0-mem", 1, 8, contended=True)
    assert contended.label == "[contended]"
    assert hash(contended) == _field_hash(contended)


def _as_fields(stream: Stream) -> dict:
    return {f.name: getattr(stream, f.name) for f in fields(Stream)}


def test_the_cached_hash_is_not_a_field():
    stream = _streams()[0]
    assert [f.name for f in fields(Stream)] == [
        "processor",
        "memory",
        "pattern",
        "total_bytes",
        "accesses",
        "access_bytes",
        "working_set_bytes",
        "hot_set",
        "bandwidth_factor",
        "label",
    ]
    assert "_hash" not in repr(stream)
    twin = Stream(**_as_fields(stream))
    object.__setattr__(twin, "_hash", 0)
    assert twin == stream  # equality compares fields only


def test_a_pickled_stream_rehashes_on_load():
    # String hashes are per process, so the payload must not carry one.
    # (A hot set holds a closure and does not pickle.)
    for stream in (s for s in _streams() if s.hot_set is None):
        payload = pickle.dumps(stream)
        assert b"_hash" not in payload
        loaded = pickle.loads(payload)
        assert loaded == stream and hash(loaded) == hash(stream)


def test_calibration_summary_equals_asdict_in_key_order():
    tuned = replace(
        DEFAULT_CALIBRATION,
        pipeline_chunks=7,
        atomic_rate={**DEFAULT_CALIBRATION.atomic_rate, "nvlink2": 1.0},
    )
    for calibration in (DEFAULT_CALIBRATION, tuned):
        summary = calibration_summary(calibration)
        expected = asdict(calibration)
        assert summary == expected
        assert list(summary) == list(expected)
        for name, value in summary.items():
            if isinstance(value, dict):
                assert list(value) == list(expected[name])
                assert value is not getattr(calibration, name)
