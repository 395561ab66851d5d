"""Interconnect behaviour model."""

import pytest

from repro.hardware.interconnect import Interconnect
from repro.hardware.specs import NVLINK2
from repro.utils.units import GIB


@pytest.fixture
def nvlink():
    return Interconnect(spec=NVLINK2, endpoint_a="cpu0", endpoint_b="gpu0")


class TestBasics:
    def test_name_includes_endpoints(self, nvlink):
        assert "cpu0" in nvlink.name and "gpu0" in nvlink.name

    def test_connects_is_order_insensitive(self, nvlink):
        assert nvlink.connects("gpu0", "cpu0")
        assert nvlink.connects("cpu0", "gpu0")
        assert not nvlink.connects("cpu0", "cpu1")

    def test_sequential_bandwidth_is_measured(self, nvlink):
        assert nvlink.sequential_bandwidth() == 63 * GIB

    def test_duplex_doubles_bandwidth(self, nvlink):
        assert nvlink.duplex_bandwidth() == 2 * 63 * GIB

