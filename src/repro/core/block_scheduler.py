"""Block Scheduler: distributes thread blocks (CTAs) to SMs.

The SMs *pull* work: an SM with free resources asks for the next block,
which keeps the scheduler trivially deterministic and avoids any
cross-module ordering concerns.  The scheduler also owns kernel-level
completion accounting — the paper's Metrics Gatherer reads "total
simulation cycles from Block Scheduler after all blocks have completed
execution" (§III-C).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.frontend.trace import BlockTrace, KernelTrace
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import BlockSource


class BlockScheduler(Module, BlockSource):
    """FIFO block dispatcher with completion accounting."""

    component = "block_scheduler"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, kernel: KernelTrace, name: str = "block_scheduler") -> None:
        super().__init__(name)
        self.kernel = kernel
        self._queue: Deque[BlockTrace] = deque(kernel.blocks)
        self._completed = 0
        self.last_completion_cycle = 0

    def reset(self) -> None:
        super().reset()
        self._queue = deque(self.kernel.blocks)
        self._completed = 0
        self.last_completion_cycle = 0

    @property
    def blocks_remaining(self) -> int:
        return len(self._queue)

    @property
    def all_done(self) -> bool:
        return self._completed == len(self.kernel.blocks)

    def peek_block(self) -> Optional[BlockTrace]:  # repro: port
        """Next pending block without dispatching it (SMs check fit first)."""
        if not self._queue:
            return None
        return self._queue[0]

    def next_block(self, sm_id: int) -> Optional[BlockTrace]:
        """Hand the next pending block to ``sm_id`` (None when drained)."""
        if not self._queue:
            return None
        block = self._queue.popleft()
        self.counters["blocks_dispatched"] += 1
        return block

    def block_done(self, sm_id: int, block: BlockTrace, cycle: int) -> None:
        self._completed += 1
        self.counters["blocks_completed"] += 1
        if cycle > self.last_completion_cycle:
            self.last_completion_cycle = cycle
