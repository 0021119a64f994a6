"""Instruction fetch / i-buffer front end (cycle-accurate only).

Each warp owns a small buffer of decoded instructions.  The fetch stage
runs every cycle: it first *delivers* any landed fetch into the owning
warp's buffer, then *arbitrates* — picking one warp (round-robin) whose
buffer is running low and starting a fetch that lands one
fetch-plus-decode round trip later.  Branches flush the buffer and
discard the in-flight fetch, so a taken branch always pays the round
trip; straight-line code keeps its buffer topped up and rarely stalls.

The hybrid plans elide the front end ("frontend": "elided"), treating
every instruction as immediately visible — part of §III-D1's saved
per-cycle stage-walking.

``warp.refill_at`` holds the landing cycle of the in-flight fetch, or
:data:`NO_FETCH` when none is outstanding.
"""

from __future__ import annotations

from typing import List

from repro.core.warp import WarpState, WarpStatus
from repro.frontend.config import SMConfig
from repro.frontend.isa import InstKind
from repro.sim.module import ModelLevel, Module

#: Sentinel for "no fetch outstanding".
NO_FETCH = -1


class FrontEnd(Module):
    """Fetch/decode timing for the warps of one sub-core."""

    component = "frontend"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, sm_config: SMConfig, name: str = "frontend") -> None:
        super().__init__(name)
        self.sm_config = sm_config
        self._round_trip = sm_config.fetch_latency + sm_config.decode_latency
        self._fetch_rr = 0

    def warp_arrived(self, warp: WarpState, cycle: int) -> None:
        """A newly resident warp starts with an empty buffer and its first
        fetch already in flight."""
        warp.ibuffer = 0
        warp.refill_at = cycle + self._round_trip

    def tick(self, cycle: int, warps: List[WarpState]) -> None:
        """One front-end cycle: deliver landed fetches, start one new one."""
        entries = self.sm_config.ibuffer_entries
        for warp in warps:
            if warp.refill_at != NO_FETCH and warp.refill_at <= cycle:
                warp.ibuffer = entries
                warp.refill_at = NO_FETCH
                self.counters["refills"] += 1
        count = len(warps)
        if count == 0:
            return
        start = self._fetch_rr
        for offset in range(count):
            warp = warps[(start + offset) % count]
            if warp.status is WarpStatus.DONE:
                continue
            if warp.refill_at == NO_FETCH and warp.ibuffer * 2 <= entries:
                warp.refill_at = cycle + self._round_trip
                self._fetch_rr = (start + offset + 1) % count
                self.counters["fetches"] += 1
                return
        self.counters["fetch_idle_cycles"] += 1

    def instruction_visible(self, warp: WarpState, cycle: int) -> bool:
        """Can the scheduler see the warp's next decoded instruction?"""
        if warp.ibuffer > 0:
            return True
        self.counters["ibuffer_empty_cycles"] += 1
        return False

    def next_visible_cycle(self, warp: WarpState) -> int:
        """Earliest cycle the warp's buffer can be non-empty again."""
        if warp.refill_at == NO_FETCH:
            return 0  # the arbiter will start a fetch; check again soon
        return warp.refill_at

    def on_issue(self, warp: WarpState, cycle: int, kind: InstKind) -> None:
        """Issuing consumes one buffered instruction; branches flush both
        the buffer and any in-flight fetch."""
        if kind is InstKind.BRANCH:
            warp.ibuffer = 0
            warp.refill_at = cycle + 1 + self._round_trip
            self.counters["flushes"] += 1
            return
        warp.ibuffer -= 1
