"""Address-pattern library.

Each pattern returns the per-lane byte addresses of one warp memory
access.  Patterns are the main lever controlling an app's memory
behaviour: coalesced streams produce few sector transactions and high
L1 locality, large strides defeat coalescing, random gathers defeat the
caches entirely, and stencils reuse neighbours.

Addresses are laid out in named regions so different arrays never alias.

A full-warp access that does not wrap is an arithmetic run, so those
patterns return it as the ``range(start, stop, step)`` it is, which is
also the form :class:`~repro.frontend.trace.TraceInstruction` stores a
run in: three integers, not a list of 32.  Partial lanes and wrapping
runs take the per-lane expression and return a list (the instruction
stores it as a ``range`` if it still happens to be a run).  Both forms
hold the same addresses in the same order.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.frontend.trace import WARP_SIZE

#: Spacing between array regions (1 GiB apart; plenty for any scale).
REGION_STRIDE = 1 << 30

#: The lanes of a whole warp, in address order (a list: callers pass lists).
_FULL_WARP = [*range(WARP_SIZE)]


def region_base(region: int) -> int:
    """Base byte address of array region ``region``."""
    return (region + 1) * REGION_STRIDE


def coalesced_pattern(
    region: int,
    index: int,
    lanes: Sequence[int],
    element_bytes: int = 4,
    wrap_elements: int = 1 << 22,
) -> Sequence[int]:
    """Fully coalesced: lane ``l`` touches element ``index*32 + l``.

    ``wrap_elements`` bounds the footprint so streaming kernels revisit
    data at realistic working-set sizes.
    """
    base = region_base(region)
    if lanes == _FULL_WARP and element_bytes > 0:
        first = (index * WARP_SIZE) % wrap_elements
        if first + WARP_SIZE <= wrap_elements:
            start = base + first * element_bytes
            return range(start, start + WARP_SIZE * element_bytes, element_bytes)
    return [
        base + ((index * WARP_SIZE + lane) % wrap_elements) * element_bytes
        for lane in lanes
    ]


def strided_pattern(
    region: int,
    index: int,
    lanes: Sequence[int],
    stride_bytes: int,
    element_bytes: int = 4,
    wrap_bytes: int = 1 << 26,
) -> Sequence[int]:
    """Column-major style access: consecutive lanes ``stride_bytes`` apart
    (stride >= 128 makes every lane its own cache line)."""
    base = region_base(region)
    offset = index * element_bytes
    if lanes == _FULL_WARP and stride_bytes > 0:
        first = offset % wrap_bytes
        if first + (WARP_SIZE - 1) * stride_bytes < wrap_bytes:
            start = base + first
            return range(start, start + WARP_SIZE * stride_bytes, stride_bytes)
    return [base + (offset + lane * stride_bytes) % wrap_bytes for lane in lanes]


def broadcast_pattern(region: int, index: int, lanes: Sequence[int]) -> List[int]:
    """Every lane reads the same element (lookup tables, kernel weights)."""
    return [region_base(region) + index * 4] * len(lanes)


def random_pattern(
    region: int,
    rng: random.Random,
    lanes: Sequence[int],
    footprint_bytes: int,
    element_bytes: int = 4,
) -> List[int]:
    """Uniformly random gather over a footprint (graph neighbour arrays).

    One ``randrange`` per lane, in lane order: that call order is the
    trace, so this pattern has no run form."""
    base = region_base(region)
    elements = max(1, footprint_bytes // element_bytes)
    return [base + rng.randrange(elements) * element_bytes for __ in lanes]


def stencil_pattern(
    region: int,
    row: int,
    col_block: int,
    lanes: Sequence[int],
    width: int,
    offset_rows: int = 0,
    offset_cols: int = 0,
    element_bytes: int = 4,
) -> Sequence[int]:
    """2-D grid access at ``(row + offset_rows, col + offset_cols)`` where
    each lane covers one column of a 32-wide tile.  Neighbouring offsets
    give the classic 5-point-stencil reuse."""
    base = region_base(region)
    actual_row = (row + offset_rows) % max(1, width)
    if lanes == _FULL_WARP and element_bytes > 0:
        first = (col_block * WARP_SIZE + offset_cols) % width
        if first + WARP_SIZE <= width:
            start = base + (actual_row * width + first) * element_bytes
            return range(start, start + WARP_SIZE * element_bytes, element_bytes)
    return [
        base
        + (
            actual_row * width
            + (col_block * WARP_SIZE + lane + offset_cols) % width
        )
        * element_bytes
        for lane in lanes
    ]


def shared_offsets(
    lanes: Sequence[int], stride_words: int = 1, base_word: int = 0
) -> Sequence[int]:
    """Shared-memory word offsets; ``stride_words`` controls bank conflicts
    (stride 1 = conflict-free, stride 32 = fully serialized)."""
    if lanes == _FULL_WARP and stride_words > 0:
        start, step = base_word * 4, stride_words * 4
        return range(start, start + WARP_SIZE * step, step)
    return [(base_word + lane * stride_words) * 4 for lane in lanes]


def partial_row_pattern(
    region: int,
    row_index: int,
    lanes: Sequence[int],
    row_bytes: int = 4096,
    element_bytes: int = 4,
) -> Sequence[int]:
    """Each warp reads the head of its own row (triangular solvers touch a
    shrinking leading portion of successive rows)."""
    base = region_base(region) + row_index * row_bytes
    if lanes == _FULL_WARP and element_bytes > 0:
        return range(base, base + WARP_SIZE * element_bytes, element_bytes)
    return [base + lane * element_bytes for lane in lanes]
