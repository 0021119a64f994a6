"""Direct unit tests for SubCore and SMCore (residency, occupancy,
issue-loop behaviours not covered by whole-simulator integration)."""

import pytest

from repro.core.block_scheduler import BlockScheduler
from repro.core.sm import SMCore
from repro.core.warp import WarpStatus
from repro.errors import SimulationError
from repro.frontend.trace import BlockTrace, KernelTrace, TraceInstruction, WarpTrace
from repro.sim.engine import Engine, EngineChecker
from repro.simulators.swift_basic import SwiftSimBasic

from conftest import alu, make_tiny_gpu, make_warp


def build_sm(gpu, kernel, simulator=None):
    simulator = simulator or SwiftSimBasic(gpu)
    scheduler = BlockScheduler(kernel)
    memory = simulator._build_memory()
    sm = SMCore(0, gpu, scheduler, simulator._subcore_factory(memory))
    return sm, scheduler


def simple_kernel(num_blocks=1, warps_per_block=1, instructions_per_warp=3,
                  smem=0, regs=32):
    blocks = []
    for block_id in range(num_blocks):
        warps = [
            make_warp([alu(16 * i, 40 + i) for i in range(instructions_per_warp)],
                      warp_id=w)
            for w in range(warps_per_block)
        ]
        blocks.append(BlockTrace(block_id, warps, shared_mem_bytes=smem,
                                 regs_per_thread=regs))
    return KernelTrace("unit_kernel", blocks)


class TestResidency:
    def test_one_block_per_tick(self, tiny_gpu):
        sm, scheduler = build_sm(tiny_gpu, simple_kernel(num_blocks=3))
        sm.tick(0)
        assert sm.counters.get("blocks_launched") == 1
        sm.tick(1)
        assert sm.counters.get("blocks_launched") == 2

    def test_warps_balance_across_subcores(self, tiny_gpu):
        kernel = simple_kernel(num_blocks=1, warps_per_block=4)
        sm, __ = build_sm(tiny_gpu, kernel)
        sm.tick(0)
        assert [sc.resident_warps for sc in sm.subcores] == [1, 1, 1, 1]

    def test_odd_warp_counts_stay_balanced(self, tiny_gpu):
        kernel = simple_kernel(num_blocks=2, warps_per_block=3)
        sm, __ = build_sm(tiny_gpu, kernel)
        sm.tick(0)
        sm.tick(1)
        counts = [sc.resident_warps for sc in sm.subcores]
        assert sum(counts) == 6
        assert max(counts) - min(counts) <= 1

    def test_shared_memory_limits_occupancy(self, tiny_gpu):
        smem = tiny_gpu.sm.shared_mem_bytes // 2 + 1   # only one block fits
        kernel = simple_kernel(num_blocks=2, warps_per_block=1, smem=smem)
        sm, scheduler = build_sm(tiny_gpu, kernel)
        sm.tick(0)
        sm.tick(1)
        assert sm.counters.get("blocks_launched") == 1
        assert scheduler.blocks_remaining == 1

    def test_register_limit_enforced(self, tiny_gpu):
        regs_per_thread = tiny_gpu.sm.registers // (2 * 32) + 1
        kernel = simple_kernel(num_blocks=2, warps_per_block=1, regs=regs_per_thread)
        sm, scheduler = build_sm(tiny_gpu, kernel)
        sm.tick(0)
        sm.tick(1)
        assert sm.counters.get("blocks_launched") == 1

    def test_block_exceeding_empty_sm_raises(self, tiny_gpu):
        too_big = simple_kernel(num_blocks=1, warps_per_block=tiny_gpu.sm.max_warps + 4)
        # The trace itself is legal; placement must fail loudly.
        sm, __ = build_sm(tiny_gpu, too_big)
        with pytest.raises(SimulationError, match="exceeds SM capacity"):
            sm.tick(0)

    def test_resources_freed_on_completion(self, tiny_gpu):
        kernel = simple_kernel(num_blocks=1, warps_per_block=2)
        sm, scheduler = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        engine.run()
        assert scheduler.all_done
        assert sm.is_done()
        assert len(sm._free_slots) == tiny_gpu.sm.max_warps
        assert sm._threads_used == 0 and sm._smem_used == 0 and sm._regs_used == 0


class TickLog(EngineChecker):
    def __init__(self):
        self.ticks = []

    def on_tick(self, module, cycle, rank):
        self.ticks.append((cycle, module.name))


class TestEmptySM:
    @pytest.mark.parametrize("allow_jump", (True, False))
    def test_sm_without_a_block_leaves_the_schedule(self, tiny_gpu, allow_jump):
        # Two SMs, one block: the second SM is ticked once, finds the
        # source drained and is never scheduled again -- under per-cycle
        # clocking exactly as under event jumping.
        simulator = SwiftSimBasic(tiny_gpu)
        scheduler = BlockScheduler(simple_kernel(num_blocks=1))
        memory = simulator._build_memory()
        engine = Engine(allow_jump=allow_jump)
        log = TickLog()
        engine.attach_checker(log)
        sms = [
            SMCore(sm_id, tiny_gpu, scheduler, simulator._subcore_factory(memory))
            for sm_id in range(2)
        ]
        for sm in sms:
            sm.attach_engine(engine)
            engine.add(sm)
        engine.run()
        assert scheduler.all_done
        assert [tick for tick in log.ticks if tick[1] == "sm1"] == [(0, "sm1")]
        assert len(log.ticks) > 2  # sm0 ran the block on its own
        assert sms[1].is_done() and not sms[1].counters.as_dict()


class TestIssueLoop:
    def test_issue_width_respected(self, tiny_gpu):
        gpu = tiny_gpu  # issue_width = 1
        kernel = simple_kernel(num_blocks=1, warps_per_block=4, instructions_per_warp=1)
        sm, __ = build_sm(gpu, kernel)
        sm.tick(0)
        committed = sum(
            sc.counters.get("instructions_committed") for sc in sm.subcores
        )
        # 4 warps on 4 sub-cores, one scheduler each: at most 4 this cycle.
        assert committed <= 4

    def test_exit_requires_drain(self, tiny_gpu):
        # A warp with a pending long-latency op cannot EXIT until it drains.
        insts = [
            TraceInstruction(0, "DFMA", dest_regs=(50,), src_regs=(1, 2)),
            TraceInstruction(16, "EXIT"),
        ]
        kernel = KernelTrace("k", [BlockTrace(0, [WarpTrace(0, insts)])])
        sm, scheduler = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        final = engine.run()
        # DP: dispatch interval 64, latency 40 -> completion ~103.
        assert final >= 100

    def test_greedy_warp_keeps_issuing(self, tiny_gpu):
        kernel = simple_kernel(num_blocks=1, warps_per_block=2, instructions_per_warp=6)
        sm, __ = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        engine.run()
        total = sum(sc.counters.get("instructions_committed") for sc in sm.subcores)
        assert total == 2 * 7  # 6 ALU + EXIT each

    def test_membar_executes(self, tiny_gpu):
        insts = [
            alu(0, 40),
            TraceInstruction(16, "MEMBAR"),
            alu(32, 41),
            TraceInstruction(48, "EXIT"),
        ]
        kernel = KernelTrace("k", [BlockTrace(0, [WarpTrace(0, insts)])])
        sm, scheduler = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        engine.run()
        assert scheduler.all_done

    def test_branch_executes(self, tiny_gpu):
        insts = [
            TraceInstruction(0, "BRA"),
            alu(16, 40),
            TraceInstruction(32, "EXIT"),
        ]
        kernel = KernelTrace("k", [BlockTrace(0, [WarpTrace(0, insts)])])
        sm, scheduler = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        engine.run()
        assert scheduler.all_done


class TestCompletionTracking:
    def test_last_completion_tracks_latest_booking(self, tiny_gpu, monkeypatch):
        # The slow SFU op is booked first and completes last: the kernel
        # tail is the latest completion booked, not the last one booked.
        from repro.core.alu_analytical import HybridALUModel
        booked = []
        issue = HybridALUModel.try_issue

        def recording(unit, warp, inst, cycle):
            completion = issue(unit, warp, inst, cycle)
            if completion is not None:
                booked.append(completion)
            return completion

        monkeypatch.setattr(HybridALUModel, "try_issue", recording)
        insts = [
            alu(0, 40, opcode="MUFU.SIN"),
            alu(16, 41),
            TraceInstruction(32, "EXIT"),
        ]
        kernel = KernelTrace("k", [BlockTrace(0, [WarpTrace(0, insts)])])
        sm, __ = build_sm(tiny_gpu, kernel)
        engine = Engine()
        sm.attach_engine(engine)
        engine.add(sm)
        engine.run()
        assert len(booked) == 2 and booked[0] > booked[1]
        assert sm.last_completion == booked[0]

    def test_kernel_tail_included_in_cycles(self, tiny_gpu):
        # A store's NoC/L2 traffic extends beyond the last EXIT; the
        # simulator's final cycle must cover reservation completions.
        from conftest import store, coalesced_addrs, make_single_warp_app
        app = make_single_warp_app(
            [store(0, 1, coalesced_addrs(base=0x700000))], "tail"
        )
        result = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
        assert result.total_cycles >= 2
