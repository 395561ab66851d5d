"""Memory regions and kinds."""

import pytest

from repro.hardware.memory import MemoryRegion
from repro.hardware.specs import DDR4_POWER9, HBM2_V100


@pytest.fixture
def region():
    return MemoryRegion(name="cpu0-mem", spec=DDR4_POWER9, owner="cpu0")


class TestReserveRelease:
    def test_reserve_reduces_free(self, region):
        region.reserve(1024)
        assert region.allocated == 1024
        assert region.free_bytes == region.capacity - 1024

    def test_reserve_beyond_capacity_raises(self, region):
        with pytest.raises(MemoryError):
            region.reserve(region.capacity + 1)

    def test_release_returns_bytes(self, region):
        region.reserve(2048)
        region.release(2048)
        assert region.allocated == 0

    def test_release_more_than_allocated_raises(self, region):
        region.reserve(10)
        with pytest.raises(ValueError):
            region.release(11)

    def test_negative_amounts_raise(self, region):
        with pytest.raises(ValueError):
            region.reserve(-1)
        with pytest.raises(ValueError):
            region.release(-1)

    def test_exact_fill(self, region):
        region.reserve(region.capacity)
        assert region.free_bytes == 0
        with pytest.raises(MemoryError):
            region.reserve(1)


def test_str_mentions_owner():
    region = MemoryRegion(name="gpu0-mem", spec=HBM2_V100, owner="gpu0")
    assert "gpu0" in str(region)
