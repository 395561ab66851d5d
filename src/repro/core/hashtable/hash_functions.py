"""Vectorized hash functions.

The paper's evaluation uses *perfect hashing* (unique dense primary
keys); the open-addressing and chaining tables additionally need a real
hash.  We provide the Murmur3/splitmix finalizer (``mix64``) and the
classic multiply-shift scheme, both vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np

_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def mix64(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a strong 64-bit avalanche mix.

    Accepts any integer array; returns uint64 hashes of the same shape.
    The xor-shifts go through one scratch buffer, so a call makes two
    temporaries, not one per operator.
    """
    h = keys.astype(np.uint64)
    shifted = np.empty_like(h)
    with np.errstate(over="ignore"):
        h += _GOLDEN64
        h ^= np.right_shift(h, np.uint64(30), out=shifted)
        h *= _MIX1
        h ^= np.right_shift(h, np.uint64(27), out=shifted)
        h *= _MIX2
        h ^= np.right_shift(h, np.uint64(31), out=shifted)
    return h


def multiply_shift(keys: np.ndarray, bits: int) -> np.ndarray:
    """Multiply-shift hashing into ``bits``-wide bucket indices.

    ``h(k) = (a * k) >> (64 - bits)`` with a fixed odd multiplier; a
    2-universal family classic that is cheap on both CPUs and GPUs.
    """
    if not 1 <= bits <= 63:
        raise ValueError(f"bits must be in [1, 63], got {bits}")
    a = np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
    with np.errstate(over="ignore"):
        product = keys.astype(np.uint64) * a
    return (product >> np.uint64(64 - bits)).astype(np.int64)


def bucket_of(keys: np.ndarray, capacity: int, scheme: str = "mix") -> np.ndarray:
    """Map keys to buckets in [0, capacity).

    ``capacity`` must be a power of two for mask-based reduction, which
    is what real GPU hash joins use to avoid the modulo.
    """
    if capacity <= 0 or capacity & (capacity - 1):
        raise ValueError(f"capacity must be a positive power of two: {capacity}")
    if scheme == "mix":
        hashed = mix64(keys)
    elif scheme == "identity":
        hashed = keys.astype(np.uint64)
    else:
        raise ValueError(f"unknown bucket scheme {scheme!r}")
    # both branches own ``hashed``; buckets are < 2**63, so the int64
    # view holds the same numbers
    hashed &= np.uint64(capacity - 1)
    return hashed.view(np.int64)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()
