"""DRAM partitions.

Each memory partition owns one channel with ``banks_per_partition``
banks.  Timing captures the two effects that matter at this abstraction
level: row-buffer locality (a hit to the open row is much faster than a
row activation) and channel bandwidth (a sector occupies the data bus
for ``sector_bytes / bytes_per_cycle`` cycles).

As with the NoC, the partition exposes both a reservation-style call for
the hybrid simulators and primitive queries the per-cycle detailed
memory system drives directly.
"""

from __future__ import annotations

from typing import List

from repro.frontend.config import DRAMConfig
from repro.sim.module import ModelLevel, Module
from repro.utils.bitops import ceil_div


class DRAMPartition(Module):
    """One memory partition's channel and banks."""

    component = "dram"
    level = ModelLevel.HYBRID

    def __init__(
        self,
        config: DRAMConfig,
        partition_id: int,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        name: str = "",
    ) -> None:
        super().__init__(name or f"dram{partition_id}")
        self.config = config
        self.partition_id = partition_id
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        # Per-access constants, hoisted off the config attribute chain.
        self._bytes_per_cycle = config.bytes_per_cycle
        self._row_bytes = config.row_bytes
        self._banks = config.banks_per_partition
        self._bank_stripe_bytes = config.row_bytes * config.banks_per_partition
        self._row_hit_latency = config.row_hit_latency
        self._row_miss_latency = config.latency
        self._open_rows: List[int] = [-1] * config.banks_per_partition
        self._channel_free = 0

    def reset(self) -> None:
        super().reset()
        self._open_rows = [-1] * self.config.banks_per_partition
        self._channel_free = 0

    def access_latency(self, line_addr: int) -> int:
        """Latency of the next access to ``line_addr``; updates row state."""
        byte_addr = line_addr * self.line_bytes
        bank = byte_addr // self._row_bytes % self._banks
        row = byte_addr // self._bank_stripe_bytes
        if self._open_rows[bank] == row:
            self.counters["row_hits"] += 1
            return self._row_hit_latency
        self._open_rows[bank] = row
        self.counters["row_misses"] += 1
        return self._row_miss_latency

    def burst_cycles(self, sectors: int = 1) -> int:
        """Data-bus occupancy of transferring ``sectors`` sectors."""
        return ceil_div(sectors * self.sector_bytes, self._bytes_per_cycle)

    def reserve(self, cycle: int, line_addr: int, sectors: int = 1, is_write: bool = False) -> int:
        """Hybrid path: queue behind the channel, return data-ready cycle.

        :meth:`burst_cycles` and :meth:`access_latency` in one frame (the
        per-cycle memory system calls those two directly).
        """
        counters = self.counters
        start = self._channel_free
        if start < cycle:
            start = cycle
        else:
            counters["stall_cycles"] += start - cycle
        burst = -(-sectors * self.sector_bytes // self._bytes_per_cycle)
        self._channel_free = start + burst
        if is_write:
            counters["writes"] += 1
            counters["sectors_transferred"] += sectors
            # Writes complete (from the requester's view) once buffered.
            return start + burst
        counters["reads"] += 1
        counters["sectors_transferred"] += sectors
        byte_addr = line_addr * self.line_bytes
        bank = byte_addr // self._row_bytes % self._banks
        row = byte_addr // self._bank_stripe_bytes
        if self._open_rows[bank] == row:
            counters["row_hits"] += 1
            return start + self._row_hit_latency + burst
        self._open_rows[bank] = row
        counters["row_misses"] += 1
        return start + self._row_miss_latency + burst
