"""Composed memory-system timing models.

Two drivers over the same substrate (sectored caches, crossbar NoC, DRAM
partitions):

* :class:`QueuedMemorySystem` — Swift-Sim's "queued" memory slot: caches
  are simulated functionally at access time and every shared resource
  (L1 banks, NoC ports, L2 banks, DRAM channels) is a reservation server
  whose next-free cycle is tracked exactly.  The entire latency of a
  request is resolved at issue, which is what lets the SM cores jump the
  clock.
* :class:`DetailedMemorySystem` — the Accel-Sim-like baseline: requests
  physically move through per-cycle queues (L1 -> NoC -> L2 -> DRAM and
  back), with completion delivered through
  :class:`~repro.sim.ports.CompletionListener` callbacks.

Both produce the same counters so the Metrics Gatherer reports either
uniformly.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind
from repro.frontend.trace import TraceInstruction
from repro.memory.access import SectorTransaction, coalesce, touched_sectors
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.dram import DRAMPartition
from repro.memory.l2 import (
    build_l2_slices,
    partition_for_line,
    route_line,
    slice_line_addr,
)
from repro.memory.noc import DetailedNoC, ReservedNoC
from repro.sim.engine import ClockedModule, Engine
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import CompletionListener

#: Bounded retries for structurally stalled reservation-mode accesses.
_MAX_RETRIES = 10_000

_STALL_STATUSES = (AccessStatus.MSHR_FULL, AccessStatus.RESERVATION_FAIL)


def _retry_stalled(
    cache: SectoredCache, line: int, sector: int, is_write: bool, cycle: int
):
    """Retry an access that stalled on the MSHR or a reservation at
    ``cycle`` until it goes through.

    Reservation-mode invariant: every MSHR entry has its fill cycle set,
    so a structural stall always clears at the next fill.  Returns the
    (result, cycle_of_successful_access) pair.
    """
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


class QueuedMemorySystem(Module):
    """Reservation-based global-memory timing (Swift-Sim-Basic)."""

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
        self.noc = ReservedNoC(config.noc, config.memory_partitions)
        self.drams = [
            DRAMPartition(
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
        # Per-transaction hot-path constants, hoisted off the config chain.
        self._l1_sector_bytes = config.l1.sector_bytes
        self._l1_sectors_per_line = config.l1.sectors_per_line
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._partitions = config.memory_partitions

    def reset(self) -> None:
        super().reset()
        for row in self._l1_bank_free:
            for i in range(len(row)):
                row[i] = 0
        for row in self._l2_bank_free:
            for i in range(len(row)):
                row[i] = 0

    # ------------------------------------------------------------------

    def access_global(
        self, sm_id: int, inst: TraceInstruction, cycle: int
    ) -> Tuple[int, int, int]:
        """Resolve one global/local memory instruction issued at ``cycle``.

        Returns ``(completion_cycle, num_sector_transactions, port_cycles)``
        where ``port_cycles`` is how long the issuing LD/ST port stays
        busy — until the last sector transaction has entered the L1 (bank
        camping therefore back-pressures issue, as it does in hardware).
        """
        # One transaction per touched sector, in first-touch order; the
        # sector number alone says which line and which sector of it.
        sectors = touched_sectors(inst.addresses, self._l1_sector_bytes)
        sectors_per_line = self._l1_sectors_per_line
        kind = inst.kind
        is_store = kind is InstKind.STORE
        is_atomic = kind is InstKind.ATOMIC
        completion = cycle
        self._last_l1_start = cycle
        for sector_addr in sectors:
            line, sector = divmod(sector_addr, sectors_per_line)
            if is_atomic:
                done = self._atomic_transaction(line, sector, cycle)
            elif is_store:
                done = self._store_transaction(sm_id, line, sector, cycle)
            else:
                done = self._load_transaction(sm_id, line, sector, cycle)
            if done > completion:
                completion = done
        self.counters["global_instructions"] += 1
        self.counters["sector_transactions"] += len(sectors)
        port_cycles = max(1, self._last_l1_start - cycle + 1)
        return completion, len(sectors), port_cycles

    # A sector transaction makes one call into each module it crosses:
    # the bank ports (L1 per SM, L2 per partition — one access per bank
    # per cycle) are reserved inline, and the stall-retry loop is entered
    # only by an access that did stall.

    def _load_transaction(self, sm_id: int, line: int, sector: int, cycle: int) -> int:
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
        l1 = self.l1_caches[sm_id]
        result = l1.access(line, sector, False, start)
        if result.status in _STALL_STATUSES:
            result, start = _retry_stalled(l1, line, sector, False, start)
        status = result.status
        hit_latency = self._l1_latency
        if status is AccessStatus.HIT:
            return start + hit_latency
        if status is AccessStatus.PENDING_HIT:
            ready = result.ready_cycle
            if ready is None:
                raise SimulationError("pending hit with unresolved fill cycle")
            return max(ready, start) + 1
        # MISS or MISS_BYPASS: go downstream.
        response_at = self._fetch_from_l2(line, sector, start + hit_latency, False)
        if status is AccessStatus.MISS:
            l1.set_fill_cycle(line, sector, response_at)
        return response_at + 1

    def _store_transaction(self, sm_id: int, line: int, sector: int, cycle: int) -> int:
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
        l1 = self.l1_caches[sm_id]
        result = l1.access(line, sector, True, start)
        if result.status in _STALL_STATUSES:
            result, start = _retry_stalled(l1, line, sector, True, start)
        if result.status not in (AccessStatus.HIT, AccessStatus.MISS_BYPASS):
            raise SimulationError(
                f"unexpected write-through store status {result.status}"
            )
        # Write-through: the sector always travels to the L2 (address flit
        # + data flit). The store retires once handed to the NoC; the L2
        # write still consumes bandwidth behind it.
        partition, slice_line = route_line(line, self._partitions)
        arrival = self.noc.send_request(start + 1, partition, 2)
        self._l2_write(partition, slice_line, line, sector, arrival)
        return start + 1

    def _atomic_transaction(self, line: int, sector: int, cycle: int) -> int:
        """Atomics bypass the L1 and are performed at the L2."""
        partition, slice_line = route_line(line, self._partitions)
        arrival = self.noc.send_request(cycle, partition, 2)
        done_at_l2 = self._l2_write(partition, slice_line, line, sector, arrival)
        return self.noc.send_response(done_at_l2, partition, 1) + 1

    def _fetch_from_l2(
        self, line: int, sector: int, cycle: int, is_write: bool
    ) -> int:
        """Read ``sector`` from the L2 (fetching from DRAM on a miss);
        returns the cycle the response lands back at the SM."""
        partition, slice_line = route_line(line, self._partitions)
        arrival = self.noc.send_request(cycle, partition, 1)
        bank_free = self._l2_bank_free[partition]
        bank = slice_line % len(bank_free)
        start = bank_free[bank]
        if start < arrival:
            start = arrival
        else:
            self.counters["l2_bank_stall_cycles"] += start - arrival
        bank_free[bank] = start + 1
        l2 = self.l2_slices[partition]
        result = l2.access(slice_line, sector, is_write, start)
        if result.status in _STALL_STATUSES:
            result, start = _retry_stalled(l2, slice_line, sector, is_write, start)
        status = result.status
        l2_latency = self._l2_latency
        if status is AccessStatus.HIT:
            data_at = start + l2_latency
        elif status is AccessStatus.PENDING_HIT:
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
        return self.noc.send_response(data_at, partition, 1) + 1

    def _l2_write(
        self, partition: int, slice_line: int, line: int, sector: int, cycle: int
    ) -> int:
        """Perform a write at the L2 slice ``line`` routes to; returns the
        write-done cycle."""
        bank_free = self._l2_bank_free[partition]
        bank = slice_line % len(bank_free)
        start = bank_free[bank]
        if start < cycle:
            start = cycle
        else:
            self.counters["l2_bank_stall_cycles"] += start - cycle
        bank_free[bank] = start + 1
        l2 = self.l2_slices[partition]
        result = l2.access(slice_line, sector, True, start)
        if result.status in _STALL_STATUSES:
            result, start = _retry_stalled(l2, slice_line, sector, True, start)
        if result.dirty_writeback_sectors:
            self.drams[partition].reserve(
                start, line, sectors=result.dirty_writeback_sectors, is_write=True
            )
        if result.status is AccessStatus.PENDING_HIT:
            ready = result.ready_cycle
            if ready is not None and ready > start:
                start = ready
        return start + self._l2_latency


# ----------------------------------------------------------------------
# Detailed (per-cycle) memory system


class _PendingInstr:
    """A memory instruction awaiting some of its sector transactions."""

    __slots__ = ("listener", "warp", "inst", "remaining", "sm_id")

    def __init__(self, listener, warp, inst, remaining: int, sm_id: int) -> None:
        self.listener = listener
        self.warp = warp
        self.inst = inst
        self.remaining = remaining
        self.sm_id = sm_id


class _L1Work:
    """One sector transaction queued at an SM's L1."""

    __slots__ = ("line", "sector", "is_write", "is_atomic", "owner")

    def __init__(self, line: int, sector: int, is_write: bool, is_atomic: bool, owner: _PendingInstr) -> None:
        self.line = line
        self.sector = sector
        self.is_write = is_write
        self.is_atomic = is_atomic
        self.owner = owner


class _L2Request:
    """A request travelling SM -> L2 over the NoC."""

    __slots__ = ("kind", "sm_id", "line", "sector", "owner")

    def __init__(self, kind: str, sm_id: int, line: int, sector: int, owner=None) -> None:
        self.kind = kind            # "read" | "read_nofill" | "write" | "atom"
        self.sm_id = sm_id
        self.line = line
        self.sector = sector
        self.owner = owner          # _PendingInstr for read_nofill / atom


class _Response:
    """A response travelling L2 -> SM over the NoC."""

    __slots__ = ("kind", "sm_id", "line", "sector", "owner")

    def __init__(self, kind: str, sm_id: int, line: int, sector: int, owner=None) -> None:
        self.kind = kind            # "fill" | "data"
        self.sm_id = sm_id
        self.line = line
        self.sector = sector
        self.owner = owner


class DetailedMemorySystem(ClockedModule):
    """Per-cycle global-memory pipeline (the Accel-Sim-like baseline)."""

    component = "memory"
    level = ModelLevel.CYCLE_ACCURATE

    #: Per-SM L1 input queue capacity, in sector transactions.
    L1_QUEUE_CAPACITY = 64
    #: L2 requests accepted per slice per cycle.
    L2_PORTS_PER_CYCLE = 2

    def __init__(self, config: GPUConfig, name: str = "memory") -> None:
        super().__init__(name)
        self.config = config
        self.engine: Optional[Engine] = None
        self.l1_caches = [
            SectoredCache(config.l1, name=f"l1_sm{sm}", seed=sm)
            for sm in range(config.num_sms)
        ]
        self.l2_slices = build_l2_slices(config)
        self.noc = DetailedNoC(
            config.noc,
            config.memory_partitions,
            deliver_request=self._on_request_arrival,
            deliver_response=self._on_response_arrival,
        )
        self.drams = [
            DRAMPartition(
                config.dram, p, config.l2.line_bytes, config.l2.sector_bytes
            )
            for p in range(config.memory_partitions)
        ]
        for module in (*self.l1_caches, *self.l2_slices, self.noc, *self.drams):
            self.add_child(module)
        self._l1_queues: List[Deque[_L1Work]] = [deque() for __ in range(config.num_sms)]
        self._l2_queues: List[Deque[_L2Request]] = [
            deque() for __ in range(config.memory_partitions)
        ]
        self._dram_queues: List[Deque[_L2Request]] = [
            deque() for __ in range(config.memory_partitions)
        ]
        # Indices of the non-empty queues above: a tick visits only these,
        # in index order, and ``busy`` reads them instead of every queue.
        self._l1_active: Set[int] = set()
        self._l2_active: Set[int] = set()
        self._dram_active: Set[int] = set()
        self._dram_busy = [0] * config.memory_partitions
        self._l1_waiters: Dict[Tuple[int, int, int], List[_PendingInstr]] = {}
        self._l2_waiters: Dict[Tuple[int, int, int], List[_L2Request]] = {}
        self._events: List[Tuple[int, int, str, object]] = []
        self._event_seq = 0
        self._outstanding = 0
        # The instruction the L1 queue last turned away from each warp
        # slot, with its transactions, kept until the retry that gets it
        # in.  Keyed by who was rejected, (sm_id, warp slot): a warp
        # re-offers that one instruction until it is accepted.
        self._rejected: Dict[
            Tuple[int, int], Tuple[TraceInstruction, List[SectorTransaction]]
        ] = {}

    def attach_engine(self, engine: Engine) -> None:
        """Let the memory system re-arm itself when cores hand it work."""
        self.engine = engine

    def reset(self) -> None:
        super().reset()
        for queue in (*self._l1_queues, *self._l2_queues, *self._dram_queues):
            queue.clear()
        for active in (self._l1_active, self._l2_active, self._dram_active):
            active.clear()
        self._dram_busy = [0] * self.config.memory_partitions
        self._l1_waiters.clear()
        self._l2_waiters.clear()
        self._events.clear()
        self._outstanding = 0
        self._rejected.clear()

    # ------------------------------------------------------------------
    # SM-facing interface

    def issue_global(
        self,
        sm_id: int,
        listener: CompletionListener,
        warp,
        inst: TraceInstruction,
        cycle: int,
    ) -> bool:
        """Accept one memory instruction into the SM's L1 queue.

        Returns False (structural stall) when the queue cannot take all
        of the instruction's sector transactions this cycle.
        """
        who = (sm_id, warp.slot)
        entry = self._rejected.pop(who, None)
        if entry is not None and entry[0] is inst:
            transactions = entry[1]
        else:
            transactions = coalesce(
                inst.addresses, self.config.l1.line_bytes, self.config.l1.sector_bytes
            )
        queue = self._l1_queues[sm_id]
        if len(queue) + len(transactions) > self.L1_QUEUE_CAPACITY:
            self._rejected[who] = (inst, transactions)
            self.counters["l1_queue_stalls"] += 1
            return False
        kind = inst.kind
        pending = _PendingInstr(listener, warp, inst, len(transactions), sm_id)
        for transaction in transactions:
            queue.append(
                _L1Work(
                    transaction.line_addr,
                    transaction.sector,
                    kind is not InstKind.LOAD,
                    kind is InstKind.ATOMIC,
                    pending,
                )
            )
        self._l1_active.add(sm_id)
        self.counters["global_instructions"] += 1
        self.counters["sector_transactions"] += len(transactions)
        self._outstanding += 1
        if self.engine is not None:
            self.engine.wake(self, cycle + 1)
        return True

    # ------------------------------------------------------------------
    # per-cycle machinery

    @property
    def busy(self) -> bool:
        return bool(
            self._outstanding
            or self._events
            or self.noc.busy
            or self._l1_active
            or self._l2_active
            or self._dram_active
        )

    def is_done(self) -> bool:
        return not self.busy

    def invariants(self, cycle: int) -> List[str]:
        broken: List[str] = []
        if self._outstanding < 0:
            broken.append(
                f"instruction conservation: {self._outstanding} outstanding "
                f"memory instructions (completions outran issues)"
            )
        for sm_id, queue in enumerate(self._l1_queues):
            if len(queue) > self.L1_QUEUE_CAPACITY:
                broken.append(
                    f"L1 queue for sm{sm_id} holds {len(queue)} "
                    f"transactions (capacity {self.L1_QUEUE_CAPACITY})"
                )
                break
        for level, queues, active in (
            ("L1", self._l1_queues, self._l1_active),
            ("L2", self._l2_queues, self._l2_active),
            ("DRAM", self._dram_queues, self._dram_active),
        ):
            non_empty = {index for index, queue in enumerate(queues) if queue}
            if non_empty != active:
                broken.append(
                    f"{level} queues {sorted(non_empty)} are non-empty but "
                    f"the tick visits {sorted(active)}"
                )
        if any(busy < 0 for busy in self._dram_busy):
            broken.append("a DRAM partition reports negative busy cycles")
        if not self.busy and (self._l1_waiters or self._l2_waiters):
            broken.append(
                "waiter leak: memory system reports idle with "
                f"{len(self._l1_waiters)} L1 / {len(self._l2_waiters)} L2 "
                f"waiter entries still registered"
            )
        return broken

    def tick(self, cycle: int) -> Optional[int]:
        self._run_events(cycle)
        self._tick_dram(cycle)
        self._tick_l2(cycle)
        self.noc.tick(cycle)
        self._tick_l1(cycle)
        return cycle + 1 if self.busy else None

    def _post(self, cycle: int, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (cycle, self._event_seq, kind, payload))
        self._event_seq += 1

    def _run_events(self, cycle: int) -> None:
        events = self._events
        while events and events[0][0] <= cycle:
            __, __seq, kind, payload = heapq.heappop(events)
            if kind == "complete":
                self._complete_one(payload, cycle)
            elif kind == "dram_enqueue":
                request = payload
                partition = partition_for_line(
                    request.line, self.config.memory_partitions
                )
                self._dram_queues[partition].append(request)
                self._dram_active.add(partition)
            elif kind == "respond":
                response = payload
                partition = partition_for_line(
                    response.line, self.config.memory_partitions
                )
                flits = 1
                self.noc.send_response(partition, response, flits=flits)
            elif kind == "l2_fill":
                self._finish_l2_fill(payload, cycle)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown memory event {kind!r}")

    def _complete_one(self, pending: _PendingInstr, cycle: int) -> None:
        pending.remaining -= 1
        if pending.remaining == 0:
            self._outstanding -= 1
            pending.listener.on_complete(pending.warp, pending.inst, cycle)

    # ---- L1 side ------------------------------------------------------

    def _tick_l1(self, cycle: int) -> None:
        active = self._l1_active
        for sm_id in sorted(active):
            queue = self._l1_queues[sm_id]
            self._tick_l1_sm(sm_id, queue, cycle)
            if not queue:
                active.discard(sm_id)

    def _tick_l1_sm(self, sm_id: int, queue: Deque[_L1Work], cycle: int) -> None:
        l1 = self.l1_caches[sm_id]
        banks_used = set()
        budget = self.config.sm.ldst_throughput
        num_banks = self.config.l1.banks
        while budget > 0 and queue:
            work = queue[0]
            bank = work.line % num_banks
            if bank in banks_used:
                self.counters["l1_bank_conflicts"] += 1
                break
            if work.is_atomic:
                queue.popleft()
                budget -= 1
                partition = partition_for_line(
                    work.line, self.config.memory_partitions
                )
                self.noc.send_request(
                    partition,
                    _L2Request("atom", sm_id, work.line, work.sector, work.owner),
                    flits=2,
                )
                continue
            banks_used.add(bank)
            result = l1.access(work.line, work.sector, work.is_write, cycle)
            status = result.status
            if status in _STALL_STATUSES:
                self.counters["l1_stall_cycles"] += 1
                break
            queue.popleft()
            budget -= 1
            partition = partition_for_line(work.line, self.config.memory_partitions)
            if work.is_write:
                # Write-through + no-allocate: forward, retire immediately.
                self.noc.send_request(
                    partition,
                    _L2Request("write", sm_id, work.line, work.sector),
                    flits=2,
                )
                self._post(cycle + 1, "complete", work.owner)
                continue
            if status is AccessStatus.HIT:
                self._post(cycle + self.config.l1.latency, "complete", work.owner)
            elif status is AccessStatus.PENDING_HIT:
                key = (sm_id, work.line, work.sector)
                self._l1_waiters.setdefault(key, []).append(work.owner)
            elif status is AccessStatus.MISS:
                key = (sm_id, work.line, work.sector)
                self._l1_waiters.setdefault(key, []).append(work.owner)
                self.noc.send_request(
                    partition,
                    _L2Request("read", sm_id, work.line, work.sector),
                    flits=1,
                )
            else:  # MISS_BYPASS
                self.noc.send_request(
                    partition,
                    _L2Request(
                        "read_nofill", sm_id, work.line, work.sector, work.owner
                    ),
                    flits=1,
                )

    def _on_response_arrival(self, partition: int, response: _Response, cycle: int) -> None:
        if response.kind == "data":
            self._complete_one(response.owner, cycle)
            return
        # "fill": install in the requesting SM's L1 and release waiters.
        sm_id = response.sm_id
        self.l1_caches[sm_id].set_fill_cycle(response.line, response.sector, cycle)
        key = (sm_id, response.line, response.sector)
        for owner in self._l1_waiters.pop(key, ()):  # merged requesters too
            self._complete_one(owner, cycle)

    # ---- L2 side ------------------------------------------------------

    def _on_request_arrival(self, partition: int, request: _L2Request, cycle: int) -> None:
        self._l2_queues[partition].append(request)
        self._l2_active.add(partition)

    def _tick_l2(self, cycle: int) -> None:
        active = self._l2_active
        for partition in sorted(active):
            queue = self._l2_queues[partition]
            self._tick_l2_slice(partition, queue, cycle)
            if not queue:
                active.discard(partition)

    def _tick_l2_slice(
        self, partition: int, queue: Deque[_L2Request], cycle: int
    ) -> None:
        l2 = self.l2_slices[partition]
        l2_latency = self.config.l2.latency
        for __ in range(self.L2_PORTS_PER_CYCLE):
            if not queue:
                return
            request = queue[0]
            slice_line = slice_line_addr(request.line, self.config.memory_partitions)
            is_write = request.kind in ("write", "atom")
            result = l2.access(slice_line, request.sector, is_write, cycle)
            status = result.status
            if status in _STALL_STATUSES:
                self.counters["l2_stall_cycles"] += 1
                return
            queue.popleft()
            if result.dirty_writeback_sectors:
                self._post(
                    cycle + l2_latency,
                    "dram_enqueue",
                    _L2Request("wb", request.sm_id, request.line, request.sector),
                )
            if request.kind == "write":
                continue
            if request.kind == "atom":
                self._post(
                    cycle + l2_latency,
                    "respond",
                    _Response("data", request.sm_id, request.line, request.sector, request.owner),
                )
                continue
            # Reads ("read" / "read_nofill").
            if status is AccessStatus.HIT:
                self._post(cycle + l2_latency, "respond", self._make_response(request))
            elif status is AccessStatus.PENDING_HIT:
                key = (partition, slice_line, request.sector)
                self._l2_waiters.setdefault(key, []).append(request)
            elif status is AccessStatus.MISS:
                key = (partition, slice_line, request.sector)
                self._l2_waiters.setdefault(key, []).append(request)
                self._post(cycle + l2_latency, "dram_enqueue", request)
            else:  # pragma: no cover - L2 is not streaming
                raise SimulationError(f"unexpected L2 status {status}")

    @staticmethod
    def _make_response(request: _L2Request) -> _Response:
        if request.kind == "read_nofill":
            return _Response("data", request.sm_id, request.line, request.sector, request.owner)
        return _Response("fill", request.sm_id, request.line, request.sector)

    def _finish_l2_fill(self, request: _L2Request, cycle: int) -> None:
        """DRAM data arrived: fill the slice and answer every waiter."""
        partition = partition_for_line(request.line, self.config.memory_partitions)
        slice_line = slice_line_addr(request.line, self.config.memory_partitions)
        self.l2_slices[partition].set_fill_cycle(slice_line, request.sector, cycle)
        key = (partition, slice_line, request.sector)
        for waiter in self._l2_waiters.pop(key, ()):
            self.noc.send_response(partition, self._make_response(waiter), flits=1)

    # ---- DRAM side ----------------------------------------------------

    def _tick_dram(self, cycle: int) -> None:
        active = self._dram_active
        for partition in sorted(active):
            if self._dram_busy[partition] > cycle:
                continue
            queue = self._dram_queues[partition]
            request = queue.popleft()
            if not queue:
                active.discard(partition)
            dram = self.drams[partition]
            burst = dram.burst_cycles(1)
            self._dram_busy[partition] = cycle + burst
            if request.kind == "wb":
                dram.counters["writes"] += 1
                dram.counters["sectors_transferred"] += 1
                continue
            latency = dram.access_latency(request.line)
            dram.counters["reads"] += 1
            dram.counters["sectors_transferred"] += 1
            self._post(cycle + latency + burst, "l2_fill", request)
