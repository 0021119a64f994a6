"""L2 organization: address interleaving across memory partitions.

The shared L2 is physically split into one slice per memory partition
(22 on the RTX 2080 Ti); consecutive cache lines interleave across
partitions so bandwidth spreads evenly.  Every memory model — detailed,
queued, and analytical — must route a line to the same partition, so the
mapping lives here as the single shared definition.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.frontend.config import GPUConfig
from repro.memory.cache import SectoredCache


def partition_for_line(line_addr: int, num_partitions: int) -> int:
    """Memory partition servicing cache line ``line_addr`` (line number)."""
    return line_addr % num_partitions


def slice_line_addr(line_addr: int, num_partitions: int) -> int:
    """Line address as seen *inside* a partition's L2 slice.

    Dividing out the interleaving keeps slice set indexing uniform (set
    index bits above the partition bits), matching how banked L2s hash.
    """
    return line_addr // num_partitions


def route_line(line_addr: int, num_partitions: int) -> Tuple[int, int]:
    """``(partition_for_line, slice_line_addr)`` of ``line_addr`` in one
    call, for the drivers that route every sector transaction."""
    slice_line, partition = divmod(line_addr, num_partitions)
    return partition, slice_line


def build_l2_slices(config: GPUConfig, seed: int = 0) -> List[SectoredCache]:
    """Construct one :class:`SectoredCache` per memory partition."""
    slice_config = config.l2_slice
    return [
        SectoredCache(slice_config, name=f"l2_slice{p}", seed=seed + 1000 + p)
        for p in range(config.memory_partitions)
    ]
