"""Hypothesis strategies for generated machines.

A generated machine keeps one of the paper's two topologies and scales
each link's and memory's measured ``seq_bw``, ``random_bw_4b`` and
``latency`` by its own factor in [1/4, 4].  Spec names stay as they are:
the calibration looks its per-link and per-memory rates up by name.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro.hardware import ibm_ac922, intel_xeon_v100
from repro.hardware.processor import ProcessorKind
from repro.hardware.topology import Machine

BASES = {"ibm-ac922": ibm_ac922, "intel-xeon-v100": intel_xeon_v100}

SCALED_FIELDS = ("seq_bw", "random_bw_4b", "latency")

_FACTORS = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)


def _scaled(spec, factors):
    return replace(
        spec,
        **{name: getattr(spec, name) * next(factors) for name in SCALED_FIELDS},
    )


def rebuild(base: Machine, factors) -> Machine:
    """``base`` rebuilt in its own construction order, every link and
    memory spec scaled by the next three of ``factors``."""
    machine = Machine(name=base.name)
    for proc in base.processors.values():
        spec = replace(proc.spec, memory=_scaled(proc.spec.memory, factors))
        if proc.kind is ProcessorKind.CPU:
            machine.add_cpu(proc.name, spec, proc.local_memory.name)
        else:
            machine.add_gpu(proc.name, spec, proc.local_memory.name)
    for link in base.links:
        machine.connect(
            link.endpoint_a, link.endpoint_b, _scaled(link.spec, factors)
        )
    return machine


@st.composite
def machines(draw, names=tuple(BASES)):
    """A machine built from one of ``names`` with scaled specs."""
    base = BASES[draw(st.sampled_from(names))]()
    count = len(SCALED_FIELDS) * (len(base.memories) + len(base.links))
    factors = draw(st.lists(_FACTORS, min_size=count, max_size=count))
    return rebuild(base, iter(factors))
