"""Runtime state of resident warps and thread blocks.

A :class:`WarpState` wraps one warp's trace with everything the Warp
Scheduler & Dispatch needs: the program counter, the scoreboard, barrier
membership, and in-flight instruction tracking.  A :class:`BlockRuntime`
groups the warps of one resident thread block for barrier coordination
and completion detection.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import List, Optional

from repro.core.scoreboard import Scoreboard
from repro.errors import SimulationError
from repro.frontend.trace import BlockTrace, WarpTrace

#: Sentinel "never" cycle for wake-time computations.
NEVER = 1 << 62


@unique
class WarpStatus(Enum):
    ACTIVE = "active"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class WarpState:
    """One resident warp."""

    __slots__ = (
        "slot",
        "age",
        "trace",
        "block",
        "pc_index",
        "status",
        "ready_cycle",
        "scoreboard",
        "inflight_count",
        "inflight_max",
        "ibuffer",
        "refill_at",
        "last_issue_cycle",
    )

    def __init__(self, slot: int, age: int, trace: WarpTrace, block: "BlockRuntime") -> None:
        self.slot = slot                  # hardware warp slot within the SM
        self.age = age                    # monotonically increasing launch order
        self.trace = trace
        self.block = block
        self.pc_index = 0
        self.status = WarpStatus.ACTIVE
        self.ready_cycle = 0
        self.scoreboard = Scoreboard()
        self.inflight_count = 0           # callback-tracked outstanding instructions
        self.inflight_max = 0             # reservation-tracked drain cycle
        self.ibuffer = 0                  # decoded instructions available (CA front end)
        self.refill_at = 0                # cycle the next i-buffer refill lands
        self.last_issue_cycle = -1

    @property
    def done(self) -> bool:
        return self.status is WarpStatus.DONE

    def retire_inflight(self) -> None:
        if self.inflight_count <= 0:
            raise SimulationError(f"warp slot {self.slot}: spurious completion")
        self.inflight_count -= 1

    def drained(self, cycle: int) -> bool:
        """True when every issued instruction has completed by ``cycle``."""
        return self.inflight_count == 0 and self.inflight_max <= cycle

    def drain_cycle(self) -> Optional[int]:
        """Cycle all reservation-tracked work completes (None while
        callback-tracked instructions remain outstanding)."""
        if self.inflight_count:
            return None
        return self.inflight_max


class BlockRuntime:
    """Barrier and completion bookkeeping for one resident thread block."""

    __slots__ = ("trace", "warps", "barrier_arrivals", "warps_done", "sm_id")

    def __init__(self, trace: BlockTrace, sm_id: int) -> None:
        self.trace = trace
        self.warps: List[WarpState] = []
        self.barrier_arrivals = 0
        self.warps_done = 0
        self.sm_id = sm_id

    def barrier_arrive(self, warp: WarpState, cycle: int) -> bool:
        """Warp reached a BAR.SYNC; returns True when this arrival releases
        the whole block (the last warp never actually blocks)."""
        self.barrier_arrivals += 1
        if self.barrier_arrivals < len(self.warps):
            warp.status = WarpStatus.AT_BARRIER
            return False
        self.barrier_arrivals = 0
        for peer in self.warps:
            if peer.status is WarpStatus.AT_BARRIER:
                peer.status = WarpStatus.ACTIVE
                if peer.ready_cycle <= cycle:
                    peer.ready_cycle = cycle + 1
        return True

    def warp_done(self) -> bool:
        """Mark one warp finished; returns True when the block is done."""
        self.warps_done += 1
        if self.warps_done > len(self.warps):
            raise SimulationError("block completed more warps than it has")
        return self.warps_done == len(self.warps)
