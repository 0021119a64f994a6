"""One sub-core: Warp Scheduler & Dispatch plus its execution resources.

The sub-core owns the per-cycle issue loop the paper keeps cycle-accurate
in both working examples.  Each tick it

1. drains writebacks of any per-cycle pipelined units,
2. collects the issuable resident warps (front-end visibility, barrier
   and drain gating, scoreboard hazards),
3. lets the scheduling policy order them and dispatches up to
   ``issue_width`` instructions into the units' fixed interfaces.

Because every sink either resolves the completion cycle at issue or
promises a callback, the same loop drives the fully cycle-accurate
baseline and both hybrid simulators — only the plugged-in modules differ.
The tick returns the earliest cycle at which anything here can change,
enabling exact clock jumps under the hybrid plans.

A tick that changed nothing but counters — no candidate, no unit wrote
back, the front end neither delivered nor started a fetch — publishes
``quiet_until``, the first cycle at which something here can act (a
warp's known cycle, a busy unit's next writeback, the front end's next
landing), with the counts it made (``quiet_counts``) and the wake it
returned (``quiet_wake``).  Until then the SM replays those instead of
ticking this sub-core.  The rule is the same for every plan;
``on_complete``, a barrier release, ``adopt``, ``remove_block_warps``
and ``reset`` end a quiet stretch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.core.execution_unit import PipelinedExecutionUnit
from repro.core.fetch import FrontEnd
from repro.core.operand_collector import OperandCollector
from repro.core.warp import NEVER, WarpState, WarpStatus
from repro.core.warp_scheduler import WarpSchedulerPolicy
from repro.errors import SimulationError
from repro.frontend.config import SMConfig
from repro.frontend.isa import OPCODES, InstKind, MemSpace, UnitClass
from repro.frontend.trace import TraceInstruction
from repro.sim.module import Counters, ModelLevel, Module
from repro.sim.ports import PENDING, CompletionListener, InstructionSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sm import SMCore

#: Fixed latencies for scheduler-internal instruction kinds.
BRANCH_LATENCY = 2
MEMBAR_LATENCY = 1

#: Kinds that issue only once the warp's earlier work has drained.
_DRAINING_KINDS = (InstKind.BARRIER, InstKind.MEMBAR, InstKind.EXIT)


class SubCore(Module, CompletionListener):
    """Warp Scheduler & Dispatch for one sub-core."""

    component = "warp_scheduler"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(
        self,
        sm: "SMCore",
        sub_id: int,
        sm_config: SMConfig,
        policy: WarpSchedulerPolicy,
        exec_unit_factory: Callable[["SubCore", object], InstructionSink],
        ldst_factory: Callable[["SubCore"], InstructionSink],
        shared_factory: Callable[["SubCore"], InstructionSink],
        use_frontend: bool = False,
        use_collector: bool = False,
        name: str = "",
    ) -> None:
        super().__init__(name or f"subcore{sub_id}")
        self.sm = sm
        self.sub_id = sub_id
        self.sm_config = sm_config
        self._issue_width = sm_config.issue_width
        self.policy = policy
        # Factories receive this sub-core so cycle-accurate sinks can use it
        # as their completion listener (two-phase wiring).
        self.exec_units: Dict[UnitClass, InstructionSink] = {
            unit_config.unit: exec_unit_factory(self, unit_config)
            for unit_config in sm_config.exec_units
        }
        # The tick loop only drains writebacks of per-cycle pipelined
        # units; resolve that subset once here instead of isinstance-ing
        # every unit on every cycle (hybrid plans have none at all).
        self._pipelined_units: List[PipelinedExecutionUnit] = [
            unit
            for unit in self.exec_units.values()
            if isinstance(unit, PipelinedExecutionUnit)
        ]
        self.ldst_unit = ldst_factory(self)
        self.shared_unit = shared_factory(self)
        # Opcode -> sink, resolved once: dispatch does one string-keyed
        # lookup instead of branching on memory space and unit class.
        # Scheduler-internal kinds (branch, sync, exit) have no entry.
        self._sinks: Dict[str, InstructionSink] = {}
        for info in OPCODES.values():
            if info.is_memory:
                shared = info.mem_space is MemSpace.SHARED
                self._sinks[info.name] = self.shared_unit if shared else self.ldst_unit
            elif info.kind is InstKind.ALU and info.unit in self.exec_units:
                self._sinks[info.name] = self.exec_units[info.unit]
        self.frontend = FrontEnd(sm_config) if use_frontend else None
        self.collector = OperandCollector(sm_config) if use_collector else None
        #: No warp here can issue and no child can act before this cycle;
        #: until then a tick would only add one ``idle_cycles`` plus
        #: ``quiet_counts`` and return ``quiet_wake``.  Zero whenever that
        #: has not been proved.
        self.quiet_until = 0
        #: The wake a quiet tick returns; 0 while a unit is busy, whose
        #: tick then returns the next cycle.
        self.quiet_wake = 0
        #: ``(counters, name, count)`` for each other count a quiet tick
        #: makes, on this sub-core or its front end.
        self.quiet_counts: Tuple[Tuple[Counters, str, int], ...] = ()
        self.warps: List[WarpState] = []
        for module in (
            *self.exec_units.values(),
            self.ldst_unit,
            self.shared_unit,
            self.frontend,
            self.collector,
        ):
            # Shared-per-SM sinks appear in several sub-cores: attach each
            # module to the tree exactly once (the first sub-core wins).
            if isinstance(module, Module) and module.claim():
                self.add_child(module)

    def reset(self) -> None:
        super().reset()
        self.warps.clear()
        self.policy.reset()
        self.quiet_until = 0

    # ------------------------------------------------------------------
    # residency

    def adopt(self, warp: WarpState, cycle: int) -> None:
        """A newly scheduled block placed one of its warps here."""
        self.warps.append(warp)
        self.quiet_until = 0
        if self.frontend is not None:
            self.frontend.warp_arrived(warp, cycle)

    def remove_block_warps(self, block) -> None:
        self.warps = [warp for warp in self.warps if warp.block is not block]
        self.quiet_until = 0

    @property
    def resident_warps(self) -> int:
        return len(self.warps)

    # ------------------------------------------------------------------
    # completion callbacks (PENDING sinks)

    def on_complete(self, warp: WarpState, inst: TraceInstruction, cycle: int) -> None:
        if inst.dest_regs:
            warp.scoreboard.release(inst.dest_regs)
        warp.retire_inflight()
        self.quiet_until = 0
        self.sm.request_wake(cycle + 1)

    # ------------------------------------------------------------------
    # the issue loop

    def tick(self, cycle: int) -> int:
        """Run one scheduler cycle; return the next interesting cycle."""
        # ``horizon``: the earliest cycle a child acts of its own accord —
        # a busy unit's next writeback, the front end's next landing;
        # ``cycle`` itself once one has acted in this tick.
        wake = horizon = NEVER
        busy = False
        for unit in self._pipelined_units:
            if unit.busy:
                acts_at = unit.tick(cycle)
                if acts_at < horizon:
                    horizon = acts_at
                if unit.busy:
                    busy = True
        frontend = self.frontend
        if frontend is not None:
            acts_at = frontend.tick(cycle, self.warps)
            if acts_at < horizon:
                horizon = acts_at
        # Warps that wait on a callback, on a drain with callbacks
        # outstanding, and on an empty i-buffer: this tick's counts.
        waits = drains = hidden = 0
        # Issuable warps, oldest first, each with its fetched instruction.
        candidates: Dict[WarpState, TraceInstruction] = {}
        for warp in self.warps:
            if warp.status is not WarpStatus.ACTIVE:
                continue  # done, or at a barrier the last arrival releases
            if warp.ready_cycle > cycle:
                if warp.ready_cycle < wake:
                    wake = warp.ready_cycle
                continue
            if frontend is not None and not frontend.instruction_visible(warp, cycle):
                hidden += 1
                visible_at = frontend.next_visible_cycle(warp)
                if visible_at <= cycle:
                    visible_at = cycle + 1
                if visible_at < wake:
                    wake = visible_at
                continue
            inst = warp.trace.instructions[warp.pc_index]
            if inst.kind in _DRAINING_KINDS:
                # Synchronizing kinds wait for the warp to drain.
                if not warp.drained(cycle):
                    drain = warp.drain_cycle()
                    if drain is None:
                        drains += 1
                    elif drain < wake:
                        wake = drain
                    continue
            else:
                ready = warp.scoreboard.ready_cycle(inst)
                if ready is None:
                    waits += 1
                    continue  # a callback will wake the SM
                if ready > cycle:
                    if ready < wake:
                        wake = ready
                    continue
            candidates[warp] = inst
        if waits:
            self.counters["scoreboard_wait_cycles"] += waits
        if drains:
            self.counters["drain_wait_cycles"] += drains
        if not candidates:
            if self.warps:
                self.counters["idle_cycles"] += 1
                if horizon > wake:
                    horizon = wake
                if horizon > cycle + 1:
                    # Nothing but counters changed, and nothing can before
                    # ``horizon``: every tick until then repeats this one.
                    self.quiet_until = horizon
                    self.quiet_wake = 0 if busy else wake
                    self.quiet_counts = (
                        self._replayed_counts(waits, drains, hidden)
                        if frontend is not None or waits or drains else ()
                    )
            return cycle + 1 if busy else wake
        if busy:
            wake = cycle + 1
        issued = 0
        issue_width = self._issue_width
        for warp in self.policy.order(list(candidates), cycle):
            if issued >= issue_width:
                break
            accepted, retry = self._dispatch(warp, candidates[warp], cycle)
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

    def _replayed_counts(self, waits: int, drains: int, hidden: int):
        """What a quiet tick adds besides its ``idle_cycles``."""
        counts = []
        if waits:
            counts.append((self.counters, "scoreboard_wait_cycles", waits))
        if drains:
            counts.append((self.counters, "drain_wait_cycles", drains))
        frontend = self.frontend
        if frontend is not None:
            counts.append((frontend.counters, "fetch_idle_cycles", 1))
            if hidden:
                counts.append((frontend.counters, "ibuffer_empty_cycles", hidden))
        return tuple(counts)

    def _dispatch(self, warp: WarpState, inst: TraceInstruction, cycle: int):
        """Try to issue ``inst``, the warp's next instruction.

        Returns ``(accepted, retry_cycle)``; ``retry_cycle`` hints when a
        rejected structural hazard may clear.
        """
        kind = inst.kind
        sink = self._sinks.get(inst.opcode)
        if sink is not None:
            if self.collector is not None and inst.src_regs:
                if self.collector.try_collect(inst, cycle) is None:
                    return False, self.collector.earliest_free()
            completion = sink.try_issue(warp, inst, cycle)
            if completion is None:
                return False, getattr(sink, "port_free_cycle", None)
        elif kind is InstKind.BRANCH:
            completion = cycle + BRANCH_LATENCY
        elif kind is InstKind.MEMBAR:
            completion = cycle + MEMBAR_LATENCY
        elif kind is InstKind.BARRIER or kind is InstKind.EXIT:
            completion = None  # issues drained, leaves nothing in flight
        else:
            raise SimulationError(f"sub-core has no sink for unit {inst.unit.value}")
        # Book the accepted instruction: scoreboard, in-flight, kernel tail.
        if completion is PENDING:
            if inst.dest_regs:
                warp.scoreboard.reserve(inst.dest_regs, None)
            warp.inflight_count += 1  # retired by on_complete
        elif completion is not None:
            if inst.dest_regs:
                warp.scoreboard.reserve(inst.dest_regs, completion)
            if completion > warp.inflight_max:
                warp.inflight_max = completion
            if completion > self.sm.last_completion:
                self.sm.last_completion = completion
        warp.pc_index += 1
        warp.ready_cycle = cycle + 1
        warp.last_issue_cycle = cycle
        if self.frontend is not None:
            self.frontend.on_issue(warp, cycle, kind)
        if kind is InstKind.BARRIER:
            if warp.block.barrier_arrive(warp, cycle):
                # Released peers may sit, proved silent, on any sub-core.
                for subcore in self.sm.subcores:
                    subcore.quiet_until = 0
            self.counters["barriers"] += 1
        elif kind is InstKind.EXIT:
            warp.status = WarpStatus.DONE
            self.sm.warp_finished(warp, cycle)
        return True, None

    def invariants(self, cycle: int) -> List[str]:
        if cycle >= self.quiet_until:
            return []
        frontend = self.frontend
        for warp in self.warps:
            if warp.status is not WarpStatus.ACTIVE or warp.ready_cycle > cycle:
                continue
            if frontend is not None and not warp.ibuffer:
                continue  # nothing decoded yet: not visible to the scheduler
            inst = warp.trace.instructions[warp.pc_index]
            if inst.kind in _DRAINING_KINDS:
                issuable = warp.drained(cycle)
            else:
                ready = warp.scoreboard.ready_cycle(inst)
                issuable = ready is not None and ready <= cycle
            if issuable:
                return [
                    f"quiet until cycle {self.quiet_until} but warp slot "
                    f"{warp.slot} can issue {inst.opcode}"
                ]
        return []
