"""Behavioural model of a point-to-point interconnect link.

A :class:`LinkSpec` is a data sheet; an :class:`Interconnect` is one
*instance* of a link in a machine (e.g. "the 3x NVLink 2.0 bundle between
CPU0 and GPU0").  It computes effective bandwidths for a given access
pattern and access size, applying the packet-overhead model of Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import LinkSpec


@dataclass(frozen=True)
class Interconnect:
    """One physical link instance between two endpoints of a machine.

    Endpoints are identified by the names of the components they join
    (processor or memory names); the topology owns routing.
    """

    spec: LinkSpec
    endpoint_a: str
    endpoint_b: str

    @property
    def name(self) -> str:
        return f"{self.spec.name}[{self.endpoint_a}<->{self.endpoint_b}]"

    def connects(self, a: str, b: str) -> bool:
        """Whether this link joins components ``a`` and ``b`` (any order)."""
        return {self.endpoint_a, self.endpoint_b} == {a, b}

    def sequential_bandwidth(self) -> float:
        """Measured streaming bandwidth in bytes/s (one direction)."""
        return self.spec.seq_bw

    def duplex_bandwidth(self) -> float:
        """Aggregate bandwidth with traffic in both directions.

        Full-duplex links (both PCI-e and NVLink) carry each direction at
        full speed; protocol acknowledgements cost a few percent, which is
        already folded into the measured per-direction number.
        """
        if self.spec.duplex:
            return 2.0 * self.spec.seq_bw
        return self.spec.seq_bw

