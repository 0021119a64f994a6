"""Tests for the GPUMech-style interval-analysis simulator."""

import pytest

from repro.errors import PlanError
from repro.memory.analytical import MemoryProfile
from repro.simulators.interval import IntervalSimulator, WAVE_RAMP_CYCLES
from repro.simulators.swift_basic import SwiftSimBasic
from repro.tracegen.suites import make_app

from conftest import alu, load, coalesced_addrs, make_single_warp_app, make_tiny_gpu, make_warp


class TestWarpProfiling:
    def _profile(self, gpu, instructions):
        app = make_single_warp_app(instructions)
        kernel = app.kernels[0]
        memory_profile = MemoryProfile.from_cache_simulation(gpu, kernel)
        simulator = IntervalSimulator(gpu)
        return simulator.profile_warp(kernel.blocks[0].warps[0], memory_profile)

    def test_independent_instructions_back_to_back(self, tiny_gpu):
        profile = self._profile(tiny_gpu, [alu(16 * i, 40 + i) for i in range(10)])
        assert profile.issue_cycles == 11  # 10 ALU + EXIT
        # Last INT op at cycle ~10 completes +4: solo time near issue count.
        assert profile.solo_cycles <= 11 + 4

    def test_dependent_chain_pays_latencies(self, tiny_gpu):
        chain = [alu(0, 50)]
        for i in range(1, 10):
            chain.append(alu(16 * i, 50 + i, (50 + i - 1,)))
        profile = self._profile(tiny_gpu, chain)
        int_latency = 4
        assert profile.solo_cycles >= 10 * int_latency

    def test_memory_latency_from_profile(self, tiny_gpu):
        insts = [
            load(0, 40, coalesced_addrs(base=0x100000)),
            alu(16, 41, (40,)),
        ]
        profile = self._profile(tiny_gpu, insts)
        # Cold coalesced load: DRAM-class latency dominates solo time.
        assert profile.solo_cycles > tiny_gpu.l2.latency
        assert profile.memory_stall_cycles > 0


class TestOccupancy:
    def test_blocks_per_sm_limited_by_smem(self, tiny_gpu):
        app = make_app("gemm", scale="tiny")  # 8 KiB smem per block
        simulator = IntervalSimulator(tiny_gpu)
        block = app.kernels[0].blocks[0]
        fit = simulator.blocks_per_sm(block)
        assert 1 <= fit <= tiny_gpu.sm.shared_mem_bytes // block.shared_mem_bytes


class TestEstimates:
    @pytest.mark.parametrize("app_name", ["gemm", "sm", "hotspot", "adi"])
    def test_within_factor_three_of_hybrid(self, tiny_gpu, app_name):
        app = make_app(app_name, scale="tiny")
        hybrid = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
        interval = IntervalSimulator(tiny_gpu).simulate(app)
        ratio = interval.total_cycles / hybrid.total_cycles
        assert 1 / 3 <= ratio <= 3, (app_name, ratio)

    def test_orders_of_magnitude_faster_than_hybrid(self, tiny_gpu):
        app = make_app("bfs", scale="tiny")
        hybrid = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
        interval = IntervalSimulator(tiny_gpu).simulate(app)
        assert interval.wall_time_seconds < hybrid.wall_time_seconds / 3

    def test_sensitive_to_execution_latency(self, tiny_gpu):
        from dataclasses import replace
        from repro.frontend.isa import UnitClass
        chain = [alu(0, 50, opcode="FFMA")]
        for i in range(1, 30):
            chain.append(alu(16 * i, 50 + i, (50 + i - 1,), opcode="FFMA"))
        app = make_single_warp_app(chain)
        slow_units = tuple(
            replace(u, latency=u.latency * 4) if u.unit is UnitClass.SP else u
            for u in tiny_gpu.sm.exec_units
        )
        fast = IntervalSimulator(tiny_gpu).simulate(app).total_cycles
        slow = IntervalSimulator(tiny_gpu.with_sm(exec_units=slow_units)).simulate(app).total_cycles
        assert slow > 2 * fast

    def test_deterministic(self, tiny_gpu):
        app = make_app("gemm", scale="tiny")
        first = IntervalSimulator(tiny_gpu).simulate(app).total_cycles
        second = IntervalSimulator(tiny_gpu).simulate(app).total_cycles
        assert first == second

    def test_kernel_results_accumulate(self, tiny_gpu):
        app = make_app("atax", scale="tiny")
        result = IntervalSimulator(tiny_gpu).simulate(app)
        assert len(result.kernels) == 2
        assert result.total_cycles == result.kernels[-1].end_cycle
        assert all(k.cycles >= WAVE_RAMP_CYCLES for k in result.kernels)
        assert result.metrics is None

    def test_unknown_hit_rate_source_refused(self, tiny_gpu):
        with pytest.raises(PlanError, match="tarot"):
            IntervalSimulator(tiny_gpu, hit_rate_source="tarot")

    def test_reuse_distance_source(self, tiny_gpu):
        app = make_app("sm", scale="tiny")
        result = IntervalSimulator(tiny_gpu, hit_rate_source="reuse_distance").simulate(app)
        assert result.total_cycles > 0
