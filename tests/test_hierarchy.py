"""Tests for the composed memory systems (queued and detailed)."""

import os
import sys

import pytest

import repro
from repro.frontend.isa import InstKind
from repro.frontend.trace import TraceInstruction
from repro.memory.hierarchy import DetailedMemorySystem, QueuedMemorySystem
from repro.memory.l2 import partition_for_line, slice_line_addr
from repro.sim.engine import ClockedModule, Engine
from repro.sim.ports import CompletionListener

from conftest import load, make_tiny_gpu, store, coalesced_addrs, warp_in_slot


class TestL2Mapping:
    def test_lines_interleave(self):
        assert [partition_for_line(line, 4) for line in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_slice_addressing_dense(self):
        assert [slice_line_addr(line, 4) for line in (0, 4, 8)] == [0, 1, 2]


class TestQueuedMemorySystem:
    def test_cold_load_latency_breakdown(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        inst = load(0, 1, coalesced_addrs(base=0x100000, count=32))
        completion, transactions, port = memory.access_global(0, inst, cycle=0)
        assert transactions == 4
        floor = tiny_gpu.l1.latency + tiny_gpu.l2.latency + tiny_gpu.dram.latency
        assert completion > floor
        assert port >= 1

    def test_warm_load_hits_l1(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        inst = load(0, 1, coalesced_addrs(base=0x100000))
        first, __, __p = memory.access_global(0, inst, cycle=0)
        second, __, __p = memory.access_global(0, load(16, 2, coalesced_addrs(base=0x100000)), cycle=first + 1)
        assert second - (first + 1) <= tiny_gpu.l1.latency + 4
        assert memory.l1_caches[0].counters.get("sector_hits") == 4

    def test_l2_shared_across_sms(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        addrs = coalesced_addrs(base=0x200000)
        first, __, __p = memory.access_global(0, load(0, 1, addrs), cycle=0)
        # A different SM misses its own L1 but hits the shared L2.
        second, __, __p = memory.access_global(1, load(0, 1, addrs), cycle=first + 1)
        dram_reads = sum(d.counters.get("reads") for d in memory.drams)
        assert dram_reads == 4  # only the first request went to DRAM
        assert second - (first + 1) < first  # far cheaper than cold

    def test_store_retires_quickly_but_consumes_bandwidth(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        inst = store(0, 1, coalesced_addrs(base=0x300000))
        completion, transactions, __ = memory.access_global(0, inst, cycle=0)
        assert transactions == 4
        assert completion <= 8  # write-through: retire at NoC handoff
        assert memory.noc.counters.get("flits") >= 8  # addr+data per sector

    def test_atomic_round_trip(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        inst_store = store(0, 1, [0x40000] * 32)
        atomic = load(0, 1, [0x40000] * 32)
        # Build a real atomic instruction.
        from repro.frontend.trace import TraceInstruction
        atomic = TraceInstruction(0, "RED", src_regs=(1,), addresses=tuple([0x40000] * 32))
        completion, transactions, __ = memory.access_global(0, atomic, cycle=0)
        assert transactions == 1
        assert completion >= tiny_gpu.l2.latency  # performed at the L2

    def test_divergent_load_serializes_banks(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        banks = tiny_gpu.l1.banks
        # 32 lines all mapping to L1 bank 0.
        addrs = [0x800000 + i * 128 * banks for i in range(32)]
        __, transactions, port = memory.access_global(0, load(0, 1, addrs), cycle=0)
        assert transactions == 32
        assert port >= 32  # one line per cycle through the camped bank

    def test_counters_flow_to_children(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        memory.access_global(0, load(0, 1, coalesced_addrs(base=0x900000)), 0)
        names = {m.name for m in memory.walk()}
        assert "l1_sm0" in names and "noc" in names
        assert memory.counters.get("global_instructions") == 1

    def test_reset_restores_cold_state(self, tiny_gpu):
        memory = QueuedMemorySystem(tiny_gpu)
        inst = load(0, 1, coalesced_addrs(base=0xA00000))
        cold, __, __p = memory.access_global(0, inst, 0)
        memory.reset()
        again, __, __p = memory.access_global(0, load(0, 1, coalesced_addrs(base=0xA00000)), 0)
        assert again == cold


def _calls_of_one_sector(memory, sm_id, inst, cycle):
    """``(file, function)`` of every Python-level call inside ``repro``
    that one single-sector instruction makes, from the transaction
    method inclusive; also returns the completion cycle."""
    package = os.path.dirname(repro.__file__) + os.sep
    calls = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append((frame.f_code.co_filename[len(package):],
                          frame.f_code.co_name))

    sys.setprofile(profiler)
    try:
        completion, transactions, __ = memory.access_global(sm_id, inst, cycle)
    finally:
        sys.setprofile(None)
    assert transactions == 1
    first = next(i for i, (__, name) in enumerate(calls)
                 if name.endswith("_transaction"))
    return calls[first:], completion


class TestCallsPerSectorTransaction:
    """The fixed per-event cost, counted not timed: on the queued path a
    sector transaction makes one call into each module it crosses, and a
    count is an in-place dict store (nothing in ``sim/module.py`` runs
    once a counter name exists)."""

    LINE = 128

    @pytest.fixture
    def warm(self, tiny_gpu):
        """Every L1 and L2 set full (a miss evicts) with clean lines
        oldest, every counter name touched in every module, nothing in
        flight."""
        memory = QueuedMemorySystem(tiny_gpu)
        cycle = 0

        def issue(sm_id, make, line, at):
            inst = make(0, 1, [line * self.LINE], mask=1)
            return memory.access_global(sm_id, inst, at)[0]

        for line in range(2048):
            for sm_id in (0, 1):
                cycle = issue(sm_id, load, line, cycle) + 1000
            if line % 64 == 0 and line < 1024:
                # Written back and evicted again before the loop ends.
                cycle = issue(0, store, line, cycle) + 1000
        for line in range(2040, 2048):  # every partition, twice
            for sm_id in (0, 1):
                cycle = issue(sm_id, load, line, cycle) + 1000   # L1 hit
                cycle = issue(sm_id, store, line, cycle) + 1000  # written through
                cycle = issue(sm_id, store, line - 1024, cycle) + 1000  # L1 miss
                done = issue(sm_id, load, (1 << 19) + line, cycle)
                issue(sm_id, load, (1 << 19) + line, cycle + 1)  # fill in flight
                cycle = done + 1000
        red = TraceInstruction(0, "RED", src_regs=(1,), active_mask=1,
                               addresses=(0,))
        cycle = memory.access_global(0, red, cycle)[0] + 1000
        return memory, cycle

    def one(self, memory, sm_id, make, line, cycle):
        inst = make(0, 1, [line * self.LINE], mask=1)
        calls, completion = _calls_of_one_sector(memory, sm_id, inst, cycle)
        assert not [c for c in calls if c[0] == os.path.join("sim", "module.py")]
        return calls, completion + 1000

    def test_l1_hit(self, warm):
        memory, cycle = warm
        hits = memory.l1_caches[0].counters.get("sector_hits")
        calls, __ = self.one(memory, 0, load, 2047, cycle)
        assert memory.l1_caches[0].counters.get("sector_hits") == hits + 1
        assert len(calls) <= 4
        assert [name for __, name in calls][:2] == ["_load_transaction", "access"]

    def test_miss_to_dram_with_an_eviction_at_both_levels(self, warm):
        memory, cycle = warm
        reads = sum(d.counters.get("reads") for d in memory.drams)
        evictions = memory.l1_caches[0].counters.get("evictions_clean")
        calls, __ = self.one(memory, 0, load, 1 << 20, cycle)
        assert sum(d.counters.get("reads") for d in memory.drams) == reads + 1
        assert memory.l1_caches[0].counters.get("evictions_clean") == evictions + 1
        assert len(calls) <= 24
        # One call into each module crossed (a cache is told the fill
        # time in a second one, once downstream has answered).
        names = [name for __, name in calls]
        for name, count in (
            ("_load_transaction", 1), ("_fetch_from_l2", 1), ("route_line", 1),
            ("access", 2), ("set_fill_cycle", 2), ("send_request", 1),
            ("send_response", 1), ("reserve", 1),
        ):
            assert names.count(name) == count, (name, names)

    def test_pending_hit_and_miss_to_l2(self, warm):
        memory, cycle = warm
        l1, l2 = memory.l1_caches[0], memory.l2_slices[0]
        pending = l1.counters.get("pending_hits")
        __, after = self.one(memory, 0, load, 1 << 21, cycle)
        calls, __ = self.one(memory, 0, load, 1 << 21, cycle + 1)  # in flight
        assert l1.counters.get("pending_hits") == pending + 1
        assert len(calls) <= 5
        l2_hits = l2.counters.get("sector_hits")
        calls, __ = self.one(memory, 1, load, 1 << 21, after)  # other SM
        assert l2.counters.get("sector_hits") == l2_hits + 1
        assert len(calls) <= 16

    def test_store_and_atomic(self, warm):
        memory, cycle = warm
        calls, cycle = self.one(memory, 0, store, 2047, cycle)
        assert len(calls) <= 12
        red = TraceInstruction(0, "RED", src_regs=(1,), active_mask=1,
                               addresses=(2047 * self.LINE,))
        calls, __ = _calls_of_one_sector(memory, 0, red, cycle)
        assert len(calls) <= 10


class _Recorder(CompletionListener):
    def __init__(self):
        self.completed = []

    def on_complete(self, warp, inst, cycle):
        self.completed.append((inst, cycle))


class _MemoryDriver(ClockedModule):
    """Feeds instructions into a DetailedMemorySystem at given cycles."""

    def __init__(self, memory, schedule):
        super().__init__("driver")
        self.memory = memory
        self.schedule = list(schedule)  # (cycle, sm_id, listener, inst)

    def tick(self, cycle):
        while self.schedule and self.schedule[0][0] <= cycle:
            __, sm_id, listener, inst = self.schedule.pop(0)
            accepted = self.memory.issue_global(sm_id, listener, warp_in_slot(), inst, cycle)
            assert accepted
        if self.schedule:
            return self.schedule[0][0]
        return None


def run_detailed(tiny_gpu, schedule, max_cycles=100000):
    memory = DetailedMemorySystem(tiny_gpu)
    engine = Engine(allow_jump=False)
    driver = _MemoryDriver(memory, schedule)
    engine.add(driver)
    engine.add(memory)
    memory.attach_engine(engine)
    final = engine.run(max_cycles=max_cycles)
    return memory, final


class TestDetailedMemorySystem:
    @pytest.fixture
    def coalesced(self, monkeypatch):
        """The address lists ``issue_global`` had coalesced, in order."""
        import repro.memory.hierarchy as hierarchy
        coalesce = hierarchy.coalesce
        seen = []

        def counting(addresses, *args):
            seen.append(addresses)
            return coalesce(addresses, *args)

        monkeypatch.setattr(hierarchy, "coalesce", counting)
        return seen

    def test_load_completes_via_callback(self, tiny_gpu):
        listener = _Recorder()
        inst = load(0, 1, coalesced_addrs(base=0x100000))
        memory, final = run_detailed(tiny_gpu, [(0, 0, listener, inst)])
        assert len(listener.completed) == 1
        floor = tiny_gpu.l2.latency + tiny_gpu.dram.latency
        assert listener.completed[0][1] > floor
        assert memory.is_done()

    def test_second_load_hits_l1(self, tiny_gpu):
        listener = _Recorder()
        a = load(0, 1, coalesced_addrs(base=0x100000))
        b = load(16, 2, coalesced_addrs(base=0x100000))
        memory, __ = run_detailed(
            tiny_gpu, [(0, 0, listener, a), (600, 0, listener, b)]
        )
        assert len(listener.completed) == 2
        second_latency = listener.completed[1][1] - 600
        assert second_latency <= tiny_gpu.l1.latency + 8

    def test_merged_misses_complete_together(self, tiny_gpu):
        listener = _Recorder()
        a = load(0, 1, coalesced_addrs(base=0x100000))
        b = load(16, 2, coalesced_addrs(base=0x100000))
        memory, __ = run_detailed(
            tiny_gpu, [(0, 0, listener, a), (1, 0, listener, b)]
        )
        assert len(listener.completed) == 2
        cycles = [c for (__, c) in listener.completed]
        assert abs(cycles[0] - cycles[1]) <= 2
        # Only one set of DRAM reads despite two instructions.
        assert sum(d.counters.get("reads") for d in memory.drams) == 4

    def test_store_completes_and_reaches_l2(self, tiny_gpu):
        listener = _Recorder()
        inst = store(0, 1, coalesced_addrs(base=0x200000))
        memory, __ = run_detailed(tiny_gpu, [(0, 0, listener, inst)])
        assert len(listener.completed) == 1
        l2_writes = sum(
            s.counters.get("sector_accesses") for s in memory.l2_slices
        )
        assert l2_writes == 4

    def test_atomic_gets_response(self, tiny_gpu):
        from repro.frontend.trace import TraceInstruction
        listener = _Recorder()
        inst = TraceInstruction(0, "RED", src_regs=(1,), addresses=tuple([0x40000] * 32))
        memory, __ = run_detailed(tiny_gpu, [(0, 0, listener, inst)])
        assert len(listener.completed) == 1
        assert listener.completed[0][1] >= tiny_gpu.l2.latency

    def test_queue_capacity_rejects(self, tiny_gpu):
        memory = DetailedMemorySystem(tiny_gpu)
        listener = _Recorder()
        # One divergent instruction with more transactions than the queue.
        addrs = [0x800000 + 128 * i for i in range(32)]
        big = load(0, 1, addrs)
        assert memory.issue_global(0, listener, warp_in_slot(), big, 0)
        assert memory.issue_global(0, listener, warp_in_slot(), big, 0)
        # Queue (64) now full: the third must be rejected.
        assert not memory.issue_global(0, listener, warp_in_slot(), big, 0)
        assert memory.counters.get("l1_queue_stalls") == 1

    def test_rejected_instruction_is_coalesced_once(self, tiny_gpu, coalesced):
        """A retry reuses the transactions the rejection already paid for
        (the LD/ST unit re-offers a stalled instruction every cycle)."""
        memory = DetailedMemorySystem(tiny_gpu)
        listener = _Recorder()
        filler = load(0, 1, [0x800000 + 128 * i for i in range(32)])
        stalled = load(16, 2, [0x900000 + 128 * i for i in range(32)])
        assert memory.issue_global(0, listener, warp_in_slot(), filler, 0)
        assert memory.issue_global(0, listener, warp_in_slot(), filler, 0)
        for cycle in range(3):
            assert not memory.issue_global(0, listener, warp_in_slot(), stalled, cycle)
        assert memory.counters.get("l1_queue_stalls") == 3
        assert len(coalesced) == 3          # filler twice, stalled once
        engine = Engine()
        memory.attach_engine(engine)
        engine.add(memory)
        engine.run()                        # the queue drains
        assert memory.issue_global(0, listener, warp_in_slot(), stalled, engine.cycle + 1)
        assert len(coalesced) == 3
        assert memory.counters.get("sector_transactions") == 96
        # Accepted: nothing is kept, so the next offer starts afresh.
        assert memory.issue_global(0, listener, warp_in_slot(), stalled, engine.cycle + 2)
        assert len(coalesced) == 4
        assert not memory.issue_global(0, listener, warp_in_slot(), filler, engine.cycle + 2)
        memory.reset()
        assert memory.issue_global(0, listener, warp_in_slot(), filler, 0)
        assert len(coalesced) == 6          # reset() dropped the kept one

    def test_each_rejected_warp_gets_its_own_transactions_back(self, tiny_gpu, coalesced):
        """The memo is keyed on who was rejected, not on the addresses:
        two warps turned away in one cycle with equal addresses each
        find their own entry, and an entry is reused only for the very
        instruction that left it."""
        memory = DetailedMemorySystem(tiny_gpu)
        listener = _Recorder()
        filler = load(0, 1, [0x800000 + 128 * i for i in range(32)])
        addrs = [0x900000 + 128 * i for i in range(32)]
        first, second = load(16, 2, addrs), load(16, 2, addrs)
        assert first == second and first is not second
        warps = (warp_in_slot(1), warp_in_slot(2))
        assert memory.issue_global(0, listener, warp_in_slot(0), filler, 0)
        assert memory.issue_global(0, listener, warp_in_slot(0), filler, 0)
        for cycle in range(2):
            assert not memory.issue_global(0, listener, warps[0], first, cycle)
            assert not memory.issue_global(0, listener, warps[1], second, cycle)
        assert len(coalesced) == 4          # filler twice, each warp once
        kept = dict(memory._rejected)
        assert set(kept) == {(0, 1), (0, 2)}
        assert kept[0, 1][0] is first and kept[0, 2][0] is second
        assert kept[0, 1][1] is not kept[0, 2][1]
        # The same slot on another SM is someone else.
        assert memory.issue_global(1, listener, warps[0], first, 2)
        assert len(coalesced) == 5 and set(memory._rejected) == set(kept)
        # A slot that offers another instruction does not get the old
        # one's transactions, however equal its addresses.
        assert not memory.issue_global(0, listener, warps[0], second, 2)
        assert len(coalesced) == 6
        assert memory._rejected[0, 1][0] is second

    @pytest.mark.parametrize("name,cycles,digest", [
        ("gemm", 738, "d149d5f4be23e99382493784741d33d5e605452b26ce8ae4b3a07025f9e3a415"),
        ("bfs", 8199, "95cf0b95f414a8896c0e7fcb66a40119f020fd296df61108cf4583235abfce8f"),
    ])
    def test_rejection_memo_moves_no_counter(self, tiny_gpu, name, cycles, digest):
        """accel-like's whole counter dict, recorded while the memo was
        keyed on the address tuple (1 154 and 201 rejections here)."""
        import hashlib
        import json
        result = repro.AccelSimLike(tiny_gpu).simulate(repro.make_app(name, scale="tiny"))
        assert result.metrics.total("l1_queue_stalls") > 0
        assert result.total_cycles == cycles
        text = json.dumps(result.metrics.per_module, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cross_sm_sharing_through_l2(self, tiny_gpu):
        listener = _Recorder()
        addrs = coalesced_addrs(base=0x500000)
        memory, __ = run_detailed(
            tiny_gpu,
            [(0, 0, listener, load(0, 1, addrs)), (600, 1, listener, load(0, 2, addrs))],
        )
        assert sum(d.counters.get("reads") for d in memory.drams) == 4
        assert len(listener.completed) == 2
