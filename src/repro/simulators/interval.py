"""Interval-analysis analytical simulator (GPUMech-style).

The paper's related work contrasts Swift-Sim with pure analytical models
— GPUMech, MDM, GCoM — that compute GPU performance from mathematical
equations over per-warp *interval profiles* instead of simulating
components.  This module implements that class of model as a fourth
design point, both to reproduce the comparison and to demonstrate the
other end of the framework's accuracy/speed spectrum:

1. **Interval profiling.**  Each warp's trace is walked once on an
   isolated in-order timeline: issue takes a cycle, a dependent
   instruction waits for its producer's latency (execution-unit latency
   for arithmetic, the Eq. 1 expectation for memory, the shared-memory
   constant for LDS/STS).  The walk yields the warp's solo execution
   time ``T1`` and its issue count.
2. **Multiprogramming.**  Warps co-resident on a sub-core overlap each
   other's stalls; interval theory approximates the sub-core's busy time
   as ``max(total issue cycles, mean T1)`` — latency-bound below the
   multiprogramming point, throughput-bound above it.
3. **Waves.**  Blocks launch in occupancy-limited waves across SMs;
   kernel time is the sum of per-wave times.

No engine, no modules, no per-cycle state: one pass over the trace plus
arithmetic.  Accuracy is correspondingly coarser — contention appears
only through the Eq. 1 expectations — which is exactly the limitation
(§II-B) that motivates hybrid simulation.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core.occupancy import blocks_per_sm as occupancy_blocks_per_sm
from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import ApplicationTrace, BlockTrace, KernelTrace
from repro.memory.analytical import (
    HIT_RATE_SOURCES,
    MemoryProfile,
    unknown_hit_rate_source,
)
from repro.simulators.base import GPUSimulator
from repro.simulators.results import KernelResult, SimulationResult
from repro.utils.bitops import ceil_div

#: Fixed pipeline-fill/launch overhead charged once per wave.
WAVE_RAMP_CYCLES = 20


class WarpIntervalProfile:
    """Solo-execution statistics of one warp."""

    __slots__ = ("issue_cycles", "solo_cycles", "memory_stall_cycles")

    def __init__(self, issue_cycles: int, solo_cycles: int, memory_stall_cycles: int) -> None:
        self.issue_cycles = issue_cycles
        self.solo_cycles = solo_cycles
        self.memory_stall_cycles = memory_stall_cycles


class IntervalSimulator(GPUSimulator):
    """Pure analytical performance model over interval profiles."""

    name = "interval"

    def __init__(self, config: GPUConfig, hit_rate_source: str = "cache_sim") -> None:
        super().__init__(config)
        if hit_rate_source not in HIT_RATE_SOURCES:
            raise unknown_hit_rate_source(hit_rate_source)
        self.hit_rate_source = hit_rate_source
        self._unit_latency = {
            unit_config.unit: unit_config.latency
            for unit_config in config.sm.exec_units
        }

    # ------------------------------------------------------------------
    # interval profiling

    def _instruction_latency(self, inst, memory_profile: MemoryProfile) -> int:
        kind = inst.kind
        if kind in (InstKind.BARRIER, InstKind.MEMBAR, InstKind.EXIT):
            return 1
        if kind is InstKind.BRANCH:
            return 2
        if inst.is_memory:
            if inst.mem_space is MemSpace.SHARED:
                return self.config.sm.shared_mem_latency
            latency, __tx, __rd = memory_profile.expected(inst.pc)
            return latency
        base = self._unit_latency.get(inst.unit)
        if base is None:
            raise SimulationError(f"no latency for unit {inst.unit.value}")
        return base * inst.latency_factor

    def profile_warp(self, warp, memory_profile: MemoryProfile) -> WarpIntervalProfile:
        """Walk one warp's trace on an isolated in-order timeline."""
        reg_ready: Dict[int, int] = {}
        now = 0
        memory_stalls = 0
        issued = 0
        for inst in warp.instructions:
            ready = now
            for reg in inst.src_regs:
                release = reg_ready.get(reg, 0)
                if release > ready:
                    ready = release
            for reg in inst.dest_regs:
                release = reg_ready.get(reg, 0)
                if release > ready:
                    ready = release
            stall = ready - now
            if stall > 0 and inst.src_regs:
                # Attribute the stall to memory when any producer was a load.
                memory_stalls += stall
            now = ready + 1  # issue cycle
            issued += 1
            latency = self._instruction_latency(inst, memory_profile)
            for reg in inst.dest_regs:
                reg_ready[reg] = now + latency
        # The warp retires when its last write lands.
        end = max([now] + list(reg_ready.values()))
        return WarpIntervalProfile(issued, end, memory_stalls)

    # ------------------------------------------------------------------
    # occupancy and waves

    def blocks_per_sm(self, block: BlockTrace) -> int:
        """How many copies of ``block`` one SM can host simultaneously."""
        return occupancy_blocks_per_sm(self.config, block)

    def estimate_kernel(self, kernel: KernelTrace, memory_profile: MemoryProfile) -> int:
        """Estimated cycles for one kernel launch."""
        profiles = [
            self.profile_warp(warp, memory_profile)
            for block in kernel.blocks
            for warp in block.warps
        ]
        mean_solo = sum(p.solo_cycles for p in profiles) / len(profiles)
        total_issue = sum(p.issue_cycles for p in profiles)

        capacity = self.blocks_per_sm(kernel.blocks[0])
        num_sms = min(self.config.num_sms, len(kernel.blocks))
        blocks_per_wave = capacity * num_sms
        waves = ceil_div(len(kernel.blocks), blocks_per_wave)

        # Per-wave issue bandwidth: every SM issues up to
        # sub_cores * issue_width instructions per cycle.
        issue_rate = num_sms * self.config.sm.sub_cores * self.config.sm.issue_width
        issue_bound = ceil_div(ceil_div(total_issue, waves), issue_rate)
        wave_cycles = max(issue_bound, round(mean_solo)) + WAVE_RAMP_CYCLES
        return waves * wave_cycles

    # ------------------------------------------------------------------

    def simulate(
        self, app: ApplicationTrace, gather_metrics: bool = False, checker=None
    ) -> SimulationResult:
        """Estimate ``app``'s cycles.  ``gather_metrics`` and ``checker``
        are the contract's keywords (:class:`GPUSimulator`); with no
        counters and no engine, both are ignored."""
        profile_started = time.perf_counter()
        memory_profiles = MemoryProfile.for_application(
            self.config, app.kernels, source=self.hit_rate_source, memo_key=app
        )
        profile_seconds = time.perf_counter() - profile_started
        started = time.perf_counter()
        clock = 0
        kernels: List[KernelResult] = []
        for kernel, memory_profile in zip(app.kernels, memory_profiles):
            cycles = self.estimate_kernel(kernel, memory_profile)
            kernels.append(
                KernelResult(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=clock + cycles,
                    instructions=kernel.num_instructions,
                )
            )
            clock += cycles
        return SimulationResult(
            app_name=app.name,
            simulator_name=self.name,
            gpu_name=self.config.name,
            total_cycles=clock,
            kernels=kernels,
            metrics=None,
            wall_time_seconds=time.perf_counter() - started,
            profile_seconds=profile_seconds,
        )
