"""Bit-level helpers used throughout the cache and coalescing models.

GPU memory structures are all power-of-two sized, so these helpers insist
on power-of-two arguments where hardware would.
"""

from __future__ import annotations

from typing import Iterator


def is_pow2(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power-of-two ``value``; raise ValueError otherwise."""
    if not is_pow2(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def align_down(addr: int, granularity: int) -> int:
    """Round ``addr`` down to a multiple of a power-of-two ``granularity``."""
    if not is_pow2(granularity):
        raise ValueError(f"granularity {granularity} is not a power of two")
    return addr & ~(granularity - 1)


def align_up(addr: int, granularity: int) -> int:
    """Round ``addr`` up to a multiple of a power-of-two ``granularity``."""
    if not is_pow2(granularity):
        raise ValueError(f"granularity {granularity} is not a power of two")
    return (addr + granularity - 1) & ~(granularity - 1)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def full_mask(width: int) -> int:
    """Return a mask with the low ``width`` bits set (width 32 = full warp)."""
    if width < 0:
        raise ValueError("mask width must be non-negative")
    return (1 << width) - 1


if hasattr(int, "bit_count"):  # Python >= 3.10
    _popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def bit_count(mask: int) -> int:
    """Population count of a non-negative mask."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    return _popcount(mask)


def mask_iter(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1
