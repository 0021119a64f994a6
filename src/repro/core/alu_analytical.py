"""Hybrid analytical ALU-pipeline model (paper §III-D1, Figure 3).

The observation: without resource contention, an arithmetic
instruction's execution time is a constant, so walking it through
Fetch/Decode/Issue/Read-Operands/Execute/Writeback every cycle is wasted
work.  The hybrid model therefore

* simulates the *contention* cycle-accurately — the dispatch port is a
  reservation the scheduler must win, exactly as in the pipelined unit
  (the orange blocks of Figure 3);
* replaces the *pipeline traversal* with the fixed instruction latency
  added at issue time (the blue blocks).

The completion cycle is returned to the Warp Scheduler immediately, so
no per-cycle ticking, writeback arbitration, or callback machinery runs.
"""

from __future__ import annotations

from repro.core.warp import WarpState
from repro.frontend.config import ExecUnitConfig
from repro.frontend.trace import TraceInstruction
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import InstructionSink, IssueResult


class HybridALUModel(Module, InstructionSink):
    """Fixed-latency execution unit with cycle-accurate port contention."""

    component = "alu_pipeline"
    level = ModelLevel.HYBRID

    def __init__(self, config: ExecUnitConfig, name: str = "") -> None:
        super().__init__(name or f"alu_{config.unit.value}")
        self.config = config
        # try_issue is the hybrid simulators' hottest sink: keep the
        # per-issue constants out of the config-object attribute chain.
        self._dispatch_interval = config.dispatch_interval
        self._base_latency = config.latency
        self._port_free = 0

    def reset(self) -> None:
        super().reset()
        self._port_free = 0

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
        interval = self._dispatch_interval
        self._port_free = cycle + interval
        latency = self._base_latency * inst.latency_factor
        self.counters["instructions"] += 1
        self.counters["busy_cycles"] += interval
        return cycle + interval - 1 + latency
