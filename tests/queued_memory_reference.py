"""Frozen reference for the queued (reservation-mode) memory path.

A copy of the call structure ``QueuedMemorySystem`` had before a sector
transaction was made to cost one call per module it crosses: every cache
access goes through ``_retry_access`` (first access and stall-retry loop
in one function), the bank ports are the ``_l1_port`` / ``_l2_port``
methods, the partition and the slice line come from two routing calls
(and ``_l2_write`` routes again), both NoC directions share ``_send``,
and ``DRAMPartition.reserve`` is ``burst_cycles`` -> ``ceil_div`` plus
``access_latency`` -> ``_bank_and_row`` on the config attribute chain.
Only the counting idiom is the live one (``counters[name] += n``), and
the caches are the live :class:`~repro.memory.cache.SectoredCache`.  It
exists only so that ``test_queued_memory_equivalence.py`` can hold the
live path to it on every returned cycle and every counter; do not
optimise or otherwise edit it.

:func:`reference_memory` swaps the memory system into the simulator
assembly for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple

import repro.simulators.base as assembly
from repro.errors import SimulationError
from repro.frontend.config import DRAMConfig, GPUConfig, NoCConfig
from repro.frontend.isa import InstKind
from repro.frontend.trace import TraceInstruction
from repro.memory.access import coalesce
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.l2 import build_l2_slices, partition_for_line, slice_line_addr
from repro.sim.module import ModelLevel, Module
from repro.utils.bitops import ceil_div

_MAX_RETRIES = 10_000

_STALL_STATUSES = (AccessStatus.MSHR_FULL, AccessStatus.RESERVATION_FAIL)


def _retry_access(
    cache: SectoredCache, line: int, sector: int, is_write: bool, cycle: int
):
    result = cache.access(line, sector, is_write, cycle)
    if result.status not in _STALL_STATUSES:
        return result, cycle
    for __ in range(_MAX_RETRIES):
        next_fill = cache.next_fill_cycle(cycle)
        if next_fill is None:
            raise SimulationError(
                f"{cache.name}: structural stall with no in-flight fills"
            )
        cycle = next_fill
        result = cache.access(line, sector, is_write, cycle)
        if result.status not in _STALL_STATUSES:
            return result, cycle
    raise SimulationError(f"{cache.name}: access retried {_MAX_RETRIES} times")


class ReferenceReservedNoC(Module):
    component = "noc"
    level = ModelLevel.HYBRID

    def __init__(self, config: NoCConfig, num_partitions: int, name: str = "noc") -> None:
        super().__init__(name)
        self.config = config
        self.num_partitions = num_partitions
        self._flits_per_cycle = config.flits_per_cycle
        self._latency = config.latency
        self._request_free = [0] * num_partitions
        self._response_free = [0] * num_partitions

    def _send(self, free: List[int], cycle: int, partition: int, flits: int) -> int:
        start = free[partition]
        if start < cycle:
            start = cycle
        else:
            self.counters["stall_cycles"] += start - cycle
        per_cycle = self._flits_per_cycle
        occupancy = (flits + per_cycle - 1) // per_cycle
        free[partition] = start + occupancy
        self.counters["flits"] += flits
        return start + occupancy - 1 + self._latency

    def send_request(self, cycle: int, partition: int, flits: int = 1) -> int:
        return self._send(self._request_free, cycle, partition, flits)

    def send_response(self, cycle: int, partition: int, flits: int = 1) -> int:
        return self._send(self._response_free, cycle, partition, flits)


class ReferenceDRAMPartition(Module):
    component = "dram"
    level = ModelLevel.HYBRID

    def __init__(
        self,
        config: DRAMConfig,
        partition_id: int,
        line_bytes: int = 128,
        sector_bytes: int = 32,
    ) -> None:
        super().__init__(f"dram{partition_id}")
        self.config = config
        self.partition_id = partition_id
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self._open_rows: List[int] = [-1] * config.banks_per_partition
        self._channel_free = 0

    def _bank_and_row(self, line_addr: int) -> Tuple[int, int]:
        byte_addr = line_addr * self.line_bytes
        bank = (byte_addr // self.config.row_bytes) % self.config.banks_per_partition
        row = byte_addr // (self.config.row_bytes * self.config.banks_per_partition)
        return bank, row

    def access_latency(self, line_addr: int) -> int:
        bank, row = self._bank_and_row(line_addr)
        if self._open_rows[bank] == row:
            self.counters["row_hits"] += 1
            return self.config.row_hit_latency
        self._open_rows[bank] = row
        self.counters["row_misses"] += 1
        return self.config.latency

    def burst_cycles(self, sectors: int = 1) -> int:
        return ceil_div(sectors * self.sector_bytes, self.config.bytes_per_cycle)

    def reserve(self, cycle: int, line_addr: int, sectors: int = 1, is_write: bool = False) -> int:
        start = self._channel_free
        if start < cycle:
            start = cycle
        else:
            self.counters["stall_cycles"] += start - cycle
        burst = self.burst_cycles(sectors)
        self._channel_free = start + burst
        self.counters["writes" if is_write else "reads"] += 1
        self.counters["sectors_transferred"] += sectors
        if is_write:
            return start + burst
        return start + self.access_latency(line_addr) + burst


class ReferenceQueuedMemorySystem(Module):
    component = "memory"
    level = ModelLevel.HYBRID

    def __init__(self, config: GPUConfig, name: str = "memory") -> None:
        super().__init__(name)
        self.config = config
        self.l1_caches = [
            SectoredCache(config.l1, name=f"l1_sm{sm}", seed=sm)
            for sm in range(config.num_sms)
        ]
        self.l2_slices = build_l2_slices(config)
        self.noc = ReferenceReservedNoC(config.noc, config.memory_partitions)
        self.drams = [
            ReferenceDRAMPartition(
                config.dram, p, config.l2.line_bytes, config.l2.sector_bytes
            )
            for p in range(config.memory_partitions)
        ]
        for module in (*self.l1_caches, *self.l2_slices, self.noc, *self.drams):
            self.add_child(module)
        banks = config.l1.banks
        self._l1_bank_free = [[0] * banks for __ in range(config.num_sms)]
        self._l2_bank_free = [
            [0] * config.l2.banks for __ in range(config.memory_partitions)
        ]
        self._last_l1_start = 0
        self._l1_line_bytes = config.l1.line_bytes
        self._l1_sector_bytes = config.l1.sector_bytes
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._partitions = config.memory_partitions

    def access_global(
        self, sm_id: int, inst: TraceInstruction, cycle: int
    ) -> Tuple[int, int, int]:
        transactions = coalesce(
            inst.addresses, self._l1_line_bytes, self._l1_sector_bytes
        )
        kind = inst.kind
        is_store = kind is InstKind.STORE
        is_atomic = kind is InstKind.ATOMIC
        completion = cycle
        self._last_l1_start = cycle
        for transaction in transactions:
            if is_atomic:
                done = self._atomic_transaction(
                    transaction.line_addr, transaction.sector, cycle
                )
            elif is_store:
                done = self._store_transaction(
                    sm_id, transaction.line_addr, transaction.sector, cycle
                )
            else:
                done = self._load_transaction(
                    sm_id, transaction.line_addr, transaction.sector, cycle
                )
            if done > completion:
                completion = done
        self.counters["global_instructions"] += 1
        self.counters["sector_transactions"] += len(transactions)
        port_cycles = max(1, self._last_l1_start - cycle + 1)
        return completion, len(transactions), port_cycles

    def _l1_port(self, sm_id: int, line: int, cycle: int) -> int:
        bank_free = self._l1_bank_free[sm_id]
        bank = line % len(bank_free)
        start = bank_free[bank]
        if start < cycle:
            start = cycle
        else:
            self.counters["l1_bank_stall_cycles"] += start - cycle
        bank_free[bank] = start + 1
        if start > self._last_l1_start:
            self._last_l1_start = start
        return start

    def _l2_port(self, partition: int, slice_line: int, cycle: int) -> int:
        bank_free = self._l2_bank_free[partition]
        bank = slice_line % len(bank_free)
        start = bank_free[bank]
        if start < cycle:
            start = cycle
        else:
            self.counters["l2_bank_stall_cycles"] += start - cycle
        bank_free[bank] = start + 1
        return start

    def _load_transaction(self, sm_id: int, line: int, sector: int, cycle: int) -> int:
        l1 = self.l1_caches[sm_id]
        start = self._l1_port(sm_id, line, cycle)
        result, start = _retry_access(l1, line, sector, False, start)
        hit_latency = self._l1_latency
        if result.status is AccessStatus.HIT:
            return start + hit_latency
        if result.status is AccessStatus.PENDING_HIT:
            ready = result.ready_cycle
            if ready is None:
                raise SimulationError("pending hit with unresolved fill cycle")
            return max(ready, start) + 1
        response_at = self._fetch_from_l2(line, sector, start + hit_latency, False)
        if result.status is AccessStatus.MISS:
            l1.set_fill_cycle(line, sector, response_at)
        return response_at + 1

    def _store_transaction(self, sm_id: int, line: int, sector: int, cycle: int) -> int:
        l1 = self.l1_caches[sm_id]
        start = self._l1_port(sm_id, line, cycle)
        result, start = _retry_access(l1, line, sector, True, start)
        if result.status not in (AccessStatus.HIT, AccessStatus.MISS_BYPASS):
            raise SimulationError(
                f"unexpected write-through store status {result.status}"
            )
        partition = partition_for_line(line, self._partitions)
        arrival = self.noc.send_request(start + 1, partition, flits=2)
        self._l2_write(line, sector, arrival)
        return start + 1

    def _atomic_transaction(self, line: int, sector: int, cycle: int) -> int:
        partition = partition_for_line(line, self._partitions)
        arrival = self.noc.send_request(cycle, partition, flits=2)
        done_at_l2 = self._l2_write(line, sector, arrival)
        response = self.noc.send_response(done_at_l2, partition, flits=1)
        return response + 1

    def _fetch_from_l2(
        self, line: int, sector: int, cycle: int, is_write: bool
    ) -> int:
        partitions = self._partitions
        partition = partition_for_line(line, partitions)
        slice_line = slice_line_addr(line, partitions)
        arrival = self.noc.send_request(cycle, partition, flits=1)
        start = self._l2_port(partition, slice_line, arrival)
        l2 = self.l2_slices[partition]
        result, start = _retry_access(l2, slice_line, sector, is_write, start)
        l2_latency = self._l2_latency
        if result.status is AccessStatus.HIT:
            data_at = start + l2_latency
        elif result.status is AccessStatus.PENDING_HIT:
            ready = result.ready_cycle
            if ready is None:
                raise SimulationError("L2 pending hit with unresolved fill cycle")
            data_at = max(ready, start) + 1
        else:  # MISS
            dram = self.drams[partition]
            data_at = dram.reserve(start + l2_latency, line)
            l2.set_fill_cycle(slice_line, sector, data_at)
            if result.dirty_writeback_sectors:
                dram.reserve(
                    start + l2_latency,
                    line,
                    sectors=result.dirty_writeback_sectors,
                    is_write=True,
                )
        return self.noc.send_response(data_at, partition, flits=1) + 1

    def _l2_write(self, line: int, sector: int, cycle: int) -> int:
        partition = partition_for_line(line, self._partitions)
        slice_line = slice_line_addr(line, self._partitions)
        start = self._l2_port(partition, slice_line, cycle)
        l2 = self.l2_slices[partition]
        result, start = _retry_access(l2, slice_line, sector, True, start)
        dram = self.drams[partition]
        if result.dirty_writeback_sectors:
            dram.reserve(
                start, line, sectors=result.dirty_writeback_sectors, is_write=True
            )
        if result.status is AccessStatus.PENDING_HIT:
            ready = result.ready_cycle
            if ready is not None and ready > start:
                start = ready
        return start + self.config.l2.latency


@contextmanager
def reference_memory():
    """Assemble queued-memory simulators from the reference inside the block."""
    live = assembly.QueuedMemorySystem
    assembly.QueuedMemorySystem = ReferenceQueuedMemorySystem
    try:
        yield
    finally:
        assembly.QueuedMemorySystem = live
