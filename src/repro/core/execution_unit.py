"""Cycle-accurate execution units (the Accel-Sim-like ALU pipeline).

A :class:`PipelinedExecutionUnit` models one unit class of one sub-core
the way a per-cycle simulator does: the dispatch port is occupied for the
warp's lane passes, instructions then travel down the pipeline, and at
the end they compete for a writeback slot on the sub-core's shared
:class:`ResultBus` — retiring through a completion callback only when a
slot is granted.  The unit must be ticked every cycle, which is exactly
the per-stage bookkeeping the hybrid model of §III-D1 removes.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.core.warp import WarpState
from repro.frontend.config import ExecUnitConfig
from repro.frontend.trace import TraceInstruction
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import PENDING, CompletionListener, InstructionSink, IssueResult


class ResultBus:
    """Writeback port shared by the execution units of one sub-core.

    ``width`` results can be written back per cycle; excess writebacks
    wait, modeling result-bus contention.
    """

    __slots__ = ("width", "_cycle", "_used")

    def __init__(self, width: int = 1) -> None:
        self.width = width
        self._cycle = -1
        self._used = 0

    def grant(self, cycle: int) -> bool:
        """Try to claim a writeback slot at ``cycle``."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used >= self.width:
            return False
        self._used += 1
        return True

    def reset(self) -> None:
        self._cycle = -1
        self._used = 0


class PipelinedExecutionUnit(Module, InstructionSink):
    """One execution-unit class, simulated stage-by-stage."""

    component = "alu_pipeline"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(
        self,
        config: ExecUnitConfig,
        listener: CompletionListener,
        result_bus: ResultBus,
        name: str = "",
    ) -> None:
        super().__init__(name or f"exec_{config.unit.value}")
        self.config = config
        self.listener = listener
        self.result_bus = result_bus
        self._port_free = 0
        self._pipeline: List[Tuple[int, int, object, TraceInstruction]] = []
        self._seq = 0
        #: Instructions are in the pipeline: the owner must tick this unit.
        #: A plain flag, kept by try_issue/tick, because the sub-core reads
        #: it for every unit on every cycle.
        self.busy = False

    def reset(self) -> None:
        super().reset()
        self._port_free = 0
        self._pipeline.clear()
        self._seq = 0
        self.busy = False

    @property
    def port_free_cycle(self) -> int:
        """When the dispatch port next accepts a warp (for wake planning)."""
        return self._port_free

    def try_issue(
        self, warp: WarpState, inst: TraceInstruction, cycle: int
    ) -> IssueResult:
        if self._port_free > cycle:
            self.counters["dispatch_stalls"] += 1
            return None
        interval = self.config.dispatch_interval
        self._port_free = cycle + interval
        latency = self.config.latency * inst.latency_factor
        done = cycle + interval - 1 + latency
        heapq.heappush(self._pipeline, (done, self._seq, warp, inst))
        self._seq += 1
        self.busy = True
        self.counters["instructions"] += 1
        self.counters["busy_cycles"] += interval
        return PENDING

    def tick(self, cycle: int) -> None:
        """Drain writebacks whose pipeline traversal completed."""
        pipeline = self._pipeline
        while pipeline and pipeline[0][0] <= cycle:
            if not self.result_bus.grant(cycle):
                # Writeback port taken: the result retries next cycle.
                done, seq, warp, inst = heapq.heappop(pipeline)
                heapq.heappush(pipeline, (cycle + 1, seq, warp, inst))
                self.counters["writeback_stalls"] += 1
                break
            __, __seq, warp, inst = heapq.heappop(pipeline)
            self.listener.on_complete(warp, inst, cycle)
        self.busy = bool(pipeline)
