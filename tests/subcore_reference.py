"""Frozen reference for the SM / sub-core tick.

A copy of the clocking code the quiescence horizon and the single-pass
issue path replaced: ``SMCore.tick`` wakes at the minimum of its
sub-cores' wakes and then ticks **every** sub-core; ``SubCore.tick``
re-scans its resident warps on every call; an accepted instruction goes
through ``_dispatch`` -> ``_sink_for`` -> ``_book`` -> ``_finish_issue``
with the warp-side helpers (``advance``, ``note_inflight``) and
``SMCore.note_completion`` as separate steps; the SM probes its block
source with ``getattr``.  It exists only so that
``test_subcore_quiescence.py`` can hold the live tick to it on cycles and
every counter; do not optimise or otherwise edit it.

:func:`reference_cores` swaps the two classes into the simulator
assembly for the duration of a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

import repro.simulators.base as assembly
from repro.core.sm import SMCore
from repro.core.subcore import BRANCH_LATENCY, MEMBAR_LATENCY, SubCore
from repro.core.warp import NEVER, WarpState, WarpStatus
from repro.errors import SimulationError
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import TraceInstruction
from repro.sim.ports import PENDING, InstructionSink


def _advance(warp: WarpState) -> None:
    warp.pc_index += 1
    if warp.pc_index > len(warp.trace.instructions):
        raise SimulationError(f"warp slot {warp.slot} advanced past EXIT")


def _note_inflight(warp: WarpState, completion_cycle: Optional[int]) -> None:
    if completion_cycle is None:
        warp.inflight_count += 1
    elif completion_cycle > warp.inflight_max:
        warp.inflight_max = completion_cycle


class ReferenceSubCore(SubCore):
    """``SubCore`` with the pre-quiescence tick and issue chain."""

    def tick(self, cycle: int) -> int:
        wake = NEVER
        for unit in self._pipelined_units:
            unit.tick(cycle)
            if unit.busy:
                wake = cycle + 1
        frontend = self.frontend
        if frontend is not None:
            frontend.tick(cycle, self.warps)
        candidates: List[WarpState] = []
        for warp in self.warps:
            if warp.status is WarpStatus.DONE:
                continue
            if warp.status is WarpStatus.AT_BARRIER:
                continue
            if warp.ready_cycle > cycle:
                if warp.ready_cycle < wake:
                    wake = warp.ready_cycle
                continue
            if frontend is not None and not frontend.instruction_visible(warp, cycle):
                visible_at = frontend.next_visible_cycle(warp)
                if visible_at <= cycle:
                    visible_at = cycle + 1
                if visible_at < wake:
                    wake = visible_at
                continue
            inst = warp.trace.instructions[warp.pc_index]
            kind = inst.kind
            if kind in (InstKind.BARRIER, InstKind.MEMBAR, InstKind.EXIT):
                if not warp.drained(cycle):
                    drain = warp.drain_cycle()
                    if drain is None:
                        self.counters["drain_wait_cycles"] += 1
                    elif drain < wake:
                        wake = drain
                    continue
            else:
                ready = warp.scoreboard.ready_cycle(inst)
                if ready is None:
                    self.counters["scoreboard_wait_cycles"] += 1
                    continue
                if ready > cycle:
                    if ready < wake:
                        wake = ready
                    continue
            candidates.append(warp)
        if not candidates:
            if self.warps:
                self.counters["idle_cycles"] += 1
            return wake
        issued = 0
        issue_width = self._issue_width
        for warp in self.policy.order(candidates, cycle):
            if issued >= issue_width:
                break
            accepted, retry = self._dispatch(warp, cycle)
            if accepted:
                issued += 1
                self.policy.issued(warp, cycle)
            elif retry is not None and retry < wake:
                wake = max(retry, cycle + 1)
        if issued:
            self.counters["instructions_committed"] += issued
            wake = cycle + 1
        else:
            self.counters["stalled_cycles"] += 1
        return wake

    def _dispatch(self, warp: WarpState, cycle: int):
        inst = warp.trace.instructions[warp.pc_index]
        kind = inst.kind
        if kind is InstKind.BARRIER:
            self._finish_issue(warp, cycle)
            warp.block.barrier_arrive(warp, cycle)
            self.counters["barriers"] += 1
            return True, None
        if kind is InstKind.EXIT:
            self._finish_issue(warp, cycle)
            warp.status = WarpStatus.DONE
            self.sm.warp_finished(warp, cycle)
            return True, None
        if kind is InstKind.MEMBAR:
            completion = cycle + MEMBAR_LATENCY
            self._book(warp, inst, completion)
            self._finish_issue(warp, cycle)
            return True, None
        if kind is InstKind.BRANCH:
            completion = cycle + BRANCH_LATENCY
            self._book(warp, inst, completion)
            self._finish_issue(warp, cycle)
            return True, None
        sink = self._sink_for(inst)
        if self.collector is not None and inst.src_regs:
            collect_done = self.collector.try_collect(inst, cycle)
            if collect_done is None:
                return False, self.collector.earliest_free()
        result = sink.try_issue(warp, inst, cycle)
        if result is None:
            port_free = getattr(sink, "port_free_cycle", None)
            return False, port_free
        if result is PENDING:
            self._book(warp, inst, None)
        else:
            self._book(warp, inst, result)
        self._finish_issue(warp, cycle)
        return True, None

    def _sink_for(self, inst: TraceInstruction) -> InstructionSink:
        if inst.is_memory:
            if inst.mem_space is MemSpace.SHARED:
                return self.shared_unit
            return self.ldst_unit
        try:
            return self.exec_units[inst.unit]
        except KeyError:
            raise SimulationError(
                f"sub-core has no sink for unit {inst.unit.value}"
            ) from None

    def _book(self, warp: WarpState, inst: TraceInstruction, completion: Optional[int]) -> None:
        if inst.dest_regs:
            warp.scoreboard.reserve(inst.dest_regs, completion)
        _note_inflight(warp, completion)
        if completion is not None:
            self.sm.note_completion(completion)

    def _finish_issue(self, warp: WarpState, cycle: int) -> None:
        inst_kind = warp.trace.instructions[warp.pc_index].kind
        _advance(warp)
        warp.ready_cycle = cycle + 1
        warp.last_issue_cycle = cycle
        if self.frontend is not None:
            self.frontend.on_issue(warp, cycle, inst_kind)


class ReferenceSMCore(SMCore):
    """``SMCore`` that ticks all of its sub-cores on every tick."""

    def note_completion(self, completion_cycle: int) -> None:
        if completion_cycle > self.last_completion:
            self.last_completion = completion_cycle

    def _take_blocks(self, cycle: int) -> bool:
        if self._source_drained:
            return False
        if not self._peek_fits():
            return False
        block = self.block_source.next_block(self.sm_id)
        if block is None:
            return False
        self._place_block(block, cycle)
        return self._peek_fits()

    def _peek_fits(self) -> bool:
        peek = getattr(self.block_source, "peek_block", None)
        if peek is None:
            return True
        block = peek()
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

    def tick(self, cycle: int) -> Optional[int]:
        self._block_finished_this_tick = False
        more_blocks = self._take_blocks(cycle)
        if not self._blocks:
            return None
        self.counters["active_cycles"] += 1
        wake = cycle + 1 if more_blocks else NEVER
        for subcore in self.subcores:
            sub_wake = subcore.tick(cycle)
            if sub_wake < wake:
                wake = sub_wake
        if self._block_finished_this_tick:
            wake = cycle + 1 if not self._blocks else min(wake, cycle + 1)
        if wake >= NEVER:
            return None
        return wake

    def is_done(self) -> bool:
        if self._blocks:
            return False
        if self._source_drained:
            return True
        peek = getattr(self.block_source, "peek_block", None)
        return peek is None or peek() is None


@contextmanager
def reference_cores():
    """Assemble simulators from the reference classes inside the block."""
    live = assembly.SubCore, assembly.SMCore
    assembly.SubCore, assembly.SMCore = ReferenceSubCore, ReferenceSMCore
    try:
        yield
    finally:
        assembly.SubCore, assembly.SMCore = live
