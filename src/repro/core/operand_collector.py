"""Operand collector and register-file bank model (cycle-accurate only).

After issue, an instruction occupies a collector unit while its source
operands are read from the banked register file; operands whose
registers share a bank are read serially.  The hybrid plans elide this
stage entirely — its latency folds into the fixed ALU latency — which is
part of Swift-Sim-Basic's saved work.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend.config import SMConfig
from repro.frontend.trace import TraceInstruction
from repro.sim.module import ModelLevel, Module


class OperandCollector(Module):
    """Collector units + register bank conflicts for one sub-core."""

    component = "operand_collector"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, sm_config: SMConfig, name: str = "operand_collector") -> None:
        super().__init__(name)
        self.sm_config = sm_config
        self._unit_free: List[int] = [0] * sm_config.operand_collector_units

    def reset(self) -> None:
        super().reset()
        self._unit_free = [0] * self.sm_config.operand_collector_units

    def read_cycles(self, inst: TraceInstruction) -> int:
        """Cycles to gather ``inst``'s sources from the banked register file."""
        banks = self.sm_config.register_banks
        per_bank = {}
        for reg in inst.src_regs:
            bank = reg % banks
            per_bank[bank] = per_bank.get(bank, 0) + 1
        if not per_bank:
            return 1
        worst = max(per_bank.values())
        if worst > 1:
            self.counters["bank_conflicts"] += worst - 1
        return worst

    def try_collect(self, inst: TraceInstruction, cycle: int) -> Optional[int]:
        """Claim a collector unit at ``cycle``.

        Returns the cycle operand read finishes, or None when every
        collector unit is busy (structural stall).
        """
        units = self._unit_free
        for index, free in enumerate(units):
            if free <= cycle:
                duration = self.read_cycles(inst)
                units[index] = cycle + duration
                self.counters["collections"] += 1
                return cycle + duration
        self.counters["structural_stalls"] += 1
        return None

    def earliest_free(self) -> int:
        return min(self._unit_free)
