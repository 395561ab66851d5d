"""Byte, time, and throughput units used throughout the simulator.

The paper mixes decimal units (GB/s electrical bandwidths in Figure 2) and
binary units (GiB/s measured bandwidths in Figures 1 and 3).  We keep both
and are explicit at every call site about which one is meant.  Internally
the simulator works in bytes and seconds.
"""

from __future__ import annotations

# --- byte units (binary) ---------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- byte units (decimal, used for electrical link bandwidths) -------------
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: cache-line / coherence granularity of column loads: a line moves
#: when any value in it is needed (NVLink 2.0 is coherent at 128 B,
#: Section 2.2.2).
LINE_BYTES = 128

# --- time units (seconds) ---------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3
SECOND = 1.0


def gib_per_s(value: float) -> float:
    """Convert a GiB/s figure into bytes/second."""
    return value * GIB


def gb_per_s(value: float) -> float:
    """Convert a decimal GB/s figure into bytes/second."""
    return value * GB


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary suffix, e.g. ``"32.0 GiB"``."""
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or suffix == "TiB":
            if suffix == "B":
                return f"{value:.0f} {suffix}"
            return f"{value:.1f} {suffix}"
        value /= 1024
    raise AssertionError("unreachable")


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit, e.g. ``"434 ns"``."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds == 0:
        return "0 s"
    if seconds < US:
        return f"{seconds / NS:.0f} ns"
    if seconds < MS:
        return f"{seconds / US:.1f} us"
    if seconds < SECOND:
        return f"{seconds / MS:.1f} ms"
    return f"{seconds:.2f} s"


def format_throughput(tuples_per_second: float) -> str:
    """Render a join throughput as the paper does, in G Tuples/s."""
    return f"{tuples_per_second / 1e9:.2f} G Tuples/s"
