"""Agreement tests between the two simulated memory systems.

The queued (reservation) memory system claims to approximate the
detailed (per-cycle) one.  These tests quantify that claim scenario by
scenario: for canonical access patterns, the two must agree on *traffic*
exactly (same caches, same coalescer) and on *latency* within a bounded
factor.  A modeling regression in either system breaks the bound.
"""

import pytest

from repro.frontend.isa import InstKind
from repro.memory.hierarchy import DetailedMemorySystem, QueuedMemorySystem
from repro.sim.engine import ClockedModule, Engine
from repro.sim.ports import CompletionListener

from conftest import coalesced_addrs, load, make_tiny_gpu, store, warp_in_slot


class _Recorder(CompletionListener):
    def __init__(self):
        self.completions = []

    def on_complete(self, warp, inst, cycle):
        self.completions.append(cycle)


def detailed_latency(gpu, instructions, issue_gap=2000):
    """Issue instructions one at a time through the detailed system;
    return per-instruction latencies."""
    memory = DetailedMemorySystem(gpu)
    recorder = _Recorder()
    schedule = [(i * issue_gap, 0, recorder, inst) for i, inst in enumerate(instructions)]

    class Driver(ClockedModule):
        def __init__(self):
            super().__init__("driver")
            self.pending = list(schedule)

        def tick(self, cycle):
            while self.pending and self.pending[0][0] <= cycle:
                __, sm, listener, inst = self.pending.pop(0)
                assert memory.issue_global(sm, listener, warp_in_slot(), inst, cycle)
            return self.pending[0][0] if self.pending else None

    engine = Engine(allow_jump=False)
    engine.add(Driver())
    engine.add(memory)
    memory.attach_engine(engine)
    engine.run(max_cycles=issue_gap * (len(instructions) + 4))
    return (
        [done - i * issue_gap for i, done in enumerate(sorted(recorder.completions))],
        memory,
    )


def queued_latency(gpu, instructions, issue_gap=2000):
    memory = QueuedMemorySystem(gpu)
    latencies = []
    for index, inst in enumerate(instructions):
        issue = index * issue_gap
        completion, __tx, __port = memory.access_global(0, inst, issue)
        latencies.append(completion - issue)
    return latencies, memory


SCENARIOS = {
    "cold_coalesced_load": [load(0, 40, coalesced_addrs(base=0x100000))],
    "warm_load": [
        load(0, 40, coalesced_addrs(base=0x200000)),
        load(16, 41, coalesced_addrs(base=0x200000)),
    ],
    "divergent_load": [load(0, 40, [0x300000 + 512 * i for i in range(32)])],
    "store_then_load": [
        store(0, 1, coalesced_addrs(base=0x400000)),
        load(16, 40, coalesced_addrs(base=0x400000)),
    ],
}


class TestLatencyAgreement:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_within_factor_two(self, scenario):
        instructions = SCENARIOS[scenario]
        detailed, __ = detailed_latency(make_tiny_gpu(), instructions)
        queued, __m = queued_latency(make_tiny_gpu(), instructions)
        for d_lat, q_lat in zip(detailed, queued):
            if d_lat < 10 and q_lat < 10:
                continue  # both trivially fast (posted stores)
            assert 0.5 <= q_lat / max(d_lat, 1) <= 2.0, (scenario, detailed, queued)

    def test_warm_load_cheap_in_both(self):
        detailed, __ = detailed_latency(make_tiny_gpu(), SCENARIOS["warm_load"])
        queued, __m = queued_latency(make_tiny_gpu(), SCENARIOS["warm_load"])
        gpu = make_tiny_gpu()
        assert detailed[1] <= gpu.l1.latency + 8
        assert queued[1] <= gpu.l1.latency + 8


class TestTrafficAgreement:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_identical_cache_traffic(self, scenario):
        instructions = SCENARIOS[scenario]
        __, detailed_memory = detailed_latency(make_tiny_gpu(), instructions)
        __l, queued_memory = queued_latency(make_tiny_gpu(), instructions)

        def traffic(memory):
            return {
                "l1_accesses": sum(
                    c.counters.get("sector_accesses") for c in memory.l1_caches
                ),
                "l1_misses": sum(
                    c.counters.get("sector_misses") for c in memory.l1_caches
                ),
                "l2_misses": sum(
                    s.counters.get("sector_misses") for s in memory.l2_slices
                ),
            }

        assert traffic(detailed_memory) == traffic(queued_memory), scenario
