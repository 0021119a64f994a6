"""One streaming multiprocessor: sub-cores plus block residency.

The SM pulls thread blocks from the Block Scheduler whenever its
occupancy limits (blocks, warps, threads, registers, shared memory)
allow, distributes each block's warps across its sub-cores, and ticks
the sub-cores.  A sub-core that proved itself quiet (``quiet_until``) is
not ticked: the SM replays the counts and the wake its last tick made,
so every counter and wake equals ticking it.  The SM's tick returns the
earliest cycle anything inside can change, so under the hybrid plans
whole SMs sleep through memory stalls; an SM that holds no block returns
``None`` and is not scheduled, under every plan.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core.warp import NEVER, BlockRuntime, WarpState
from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.trace import BlockTrace
from repro.sim.engine import ClockedModule, Engine
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import BlockSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.subcore import SubCore


class SMCore(ClockedModule):
    """A streaming multiprocessor."""

    component = "sm"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        block_source: BlockSource,
        subcore_factory: Callable[["SMCore", int], "SubCore"],
        name: str = "",
    ) -> None:
        super().__init__(name or f"sm{sm_id}")
        self.sm_id = sm_id
        self.config = config
        self.block_source = block_source
        #: One shared-memory unit serves every sub-core of this SM; the
        #: simulator factory populates this while building the first
        #: sub-core and reuses it for the rest.
        self.shared_unit: Optional[Module] = None
        self.subcores: List["SubCore"] = [
            self.add_child(subcore_factory(self, sub))
            for sub in range(config.sm.sub_cores)
        ]
        self.engine: Optional[Engine] = None
        self.last_completion = 0
        self._blocks: List[BlockRuntime] = []
        self._free_slots = list(range(config.sm.max_warps - 1, -1, -1))
        self._threads_used = 0
        self._smem_used = 0
        self._regs_used = 0
        self._warp_age = 0
        self._source_drained = False
        self._block_finished_this_tick = False

    def attach_engine(self, engine: Engine) -> None:
        self.engine = engine

    def reset(self) -> None:
        super().reset()
        self.last_completion = 0
        self._blocks.clear()
        self._free_slots = list(range(self.config.sm.max_warps - 1, -1, -1))
        self._threads_used = 0
        self._smem_used = 0
        self._regs_used = 0
        self._warp_age = 0
        self._source_drained = False
        self._block_finished_this_tick = False

    # ------------------------------------------------------------------
    # residency

    def invariants(self, cycle: int) -> List[str]:
        sm = self.config.sm
        broken: List[str] = []
        if not 0 <= self._threads_used <= sm.max_threads:
            broken.append(
                f"thread occupancy {self._threads_used} outside "
                f"[0, {sm.max_threads}]"
            )
        if not 0 <= self._smem_used <= sm.shared_mem_bytes:
            broken.append(
                f"shared-memory occupancy {self._smem_used} outside "
                f"[0, {sm.shared_mem_bytes}]"
            )
        if not 0 <= self._regs_used <= sm.registers:
            broken.append(
                f"register occupancy {self._regs_used} outside "
                f"[0, {sm.registers}]"
            )
        if len(self._blocks) > sm.max_blocks:
            broken.append(
                f"{len(self._blocks)} resident blocks exceed the "
                f"{sm.max_blocks}-block limit"
            )
        if len(self._free_slots) > sm.max_warps:
            broken.append(
                f"warp-slot leak: {len(self._free_slots)} free slots for "
                f"{sm.max_warps} total slots"
            )
        if not self._blocks and (self._threads_used or self._smem_used
                                 or self._regs_used):
            broken.append(
                "resource leak: no resident blocks but occupancy is "
                f"threads={self._threads_used} smem={self._smem_used} "
                f"regs={self._regs_used}"
            )
        return broken

    def _fits(self, block: BlockTrace) -> bool:
        sm = self.config.sm
        warps = len(block.warps)
        threads = block.num_threads
        regs = block.regs_per_thread * threads
        return (
            len(self._blocks) < sm.max_blocks
            and warps <= len(self._free_slots)
            and self._threads_used + threads <= sm.max_threads
            and self._smem_used + block.shared_mem_bytes <= sm.shared_mem_bytes
            and self._regs_used + regs <= sm.registers
        )

    def _take_blocks(self, cycle: int) -> bool:
        """Take at most one block per cycle (like GPGPU-Sim's one-CTA-per-
        cluster-per-cycle issue), so blocks spread across SMs.  Returns
        True when more blocks remain that this SM could take next cycle."""
        if not self._peek_fits():
            return False
        block = self.block_source.next_block(self.sm_id)
        if block is None:
            return False
        self._place_block(block, cycle)
        return self._peek_fits()

    def _peek_fits(self) -> bool:
        block = self.block_source.peek_block()
        if block is None:
            self._source_drained = True
            return False
        if not self._blocks and not self._fits(block):
            raise SimulationError(
                f"{self.name}: block {block.block_id} exceeds SM capacity "
                f"(warps={len(block.warps)}, threads={block.num_threads}, "
                f"smem={block.shared_mem_bytes}, regs/thread={block.regs_per_thread})"
            )
        return self._fits(block)

    def _place_block(self, block: BlockTrace, cycle: int) -> None:
        if not self._fits(block):
            raise SimulationError(f"{self.name}: block {block.block_id} does not fit")
        runtime = BlockRuntime(block, self.sm_id)
        self._blocks.append(runtime)
        self._threads_used += block.num_threads
        self._smem_used += block.shared_mem_bytes
        self._regs_used += block.regs_per_thread * block.num_threads
        for warp_trace in block.warps:
            slot = self._free_slots.pop()
            warp = WarpState(slot, self._warp_age, warp_trace, runtime)
            self._warp_age += 1
            warp.ready_cycle = cycle
            runtime.warps.append(warp)
            subcore = min(self.subcores, key=lambda sc: sc.resident_warps)
            subcore.adopt(warp, cycle)
        self.counters["blocks_launched"] += 1

    def warp_finished(self, warp: WarpState, cycle: int) -> None:
        """A warp issued EXIT; free the block when it was the last one."""
        block = warp.block
        if block.warp_done():
            self._release_block(block, cycle)

    def _release_block(self, block: BlockRuntime, cycle: int) -> None:
        self._blocks.remove(block)
        trace = block.trace
        self._threads_used -= trace.num_threads
        self._smem_used -= trace.shared_mem_bytes
        self._regs_used -= trace.regs_per_thread * trace.num_threads
        for warp in block.warps:
            self._free_slots.append(warp.slot)
        for subcore in self.subcores:
            subcore.remove_block_warps(block)
        self.block_source.block_done(self.sm_id, trace, cycle)
        self.counters["blocks_completed"] += 1
        self._block_finished_this_tick = True

    # ------------------------------------------------------------------
    # completion plumbing

    def request_wake(self, cycle: int) -> None:
        """Called from completion callbacks to re-arm this SM."""
        if self.engine is not None:
            self.engine.wake(self, cycle)

    # ------------------------------------------------------------------
    # clocking

    def tick(self, cycle: int) -> Optional[int]:
        more_blocks = not self._source_drained and self._take_blocks(cycle)
        if not self._blocks:
            return None  # holds nothing: out of the schedule, in every plan
        self._block_finished_this_tick = False
        self.counters["active_cycles"] += 1
        wake = cycle + 1 if more_blocks else NEVER
        for subcore in self.subcores:
            if cycle < subcore.quiet_until:
                # Proved quiet until then: skip the tick, replay its counts
                # and its wake.
                subcore.counters["idle_cycles"] += 1
                for counters, name, count in subcore.quiet_counts:
                    counters[name] += count
                sub_wake = subcore.quiet_wake or cycle + 1
            else:
                sub_wake = subcore.tick(cycle)
            if sub_wake < wake:
                wake = sub_wake
        if self._block_finished_this_tick:
            # Freed resources may admit another block immediately.
            wake = cycle + 1 if not self._blocks else min(wake, cycle + 1)
        if wake >= NEVER:
            return None  # every runnable warp awaits a callback
        return wake

    def is_done(self) -> bool:
        if self._blocks:
            return False
        return self._source_drained or self.block_source.peek_block() is None
