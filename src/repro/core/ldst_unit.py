"""LD/ST units: the sub-core's gateway to the memory system.

Three global-memory variants implement the same
:class:`~repro.sim.ports.InstructionSink` contract, one per memory
modeling choice in the plan:

* :class:`DetailedLDSTUnit` — hands instructions to the per-cycle
  :class:`~repro.memory.hierarchy.DetailedMemorySystem`; completion
  arrives by callback (:data:`~repro.sim.ports.PENDING`).
* :class:`QueuedLDSTUnit` — resolves the full latency at issue via the
  reservation-based :class:`~repro.memory.hierarchy.QueuedMemorySystem`.
* :class:`AnalyticalLDSTUnit` — resolves it via the Eq. 1
  :class:`~repro.memory.analytical.AnalyticalMemoryModel`.

Shared-memory instructions never leave the SM; :class:`SharedMemoryUnit`
models them with exact bank-conflict arithmetic (cycle-accurate flavour)
or a fixed-latency analytical simplification.
"""

from __future__ import annotations

from repro.core.warp import WarpState
from repro.frontend.config import SMConfig
from repro.frontend.trace import TraceInstruction
from repro.memory.analytical import AnalyticalMemoryModel
from repro.memory.hierarchy import DetailedMemorySystem, QueuedMemorySystem
from repro.sim.module import ModelLevel, Module
from repro.sim.ports import PENDING, CompletionListener, InstructionSink, IssueResult
from repro.utils.bitops import ceil_div


class QueuedLDSTUnit(Module, InstructionSink):
    """Reservation-mode LD/ST unit (Swift-Sim-Basic's memory slot)."""

    component = "ldst_unit"
    level = ModelLevel.HYBRID

    def __init__(
        self, sm_id: int, sm_config: SMConfig, memory: QueuedMemorySystem, name: str = ""
    ) -> None:
        super().__init__(name or "ldst")
        self.sm_id = sm_id
        self.sm_config = sm_config
        self.memory = memory
        self._port_free = 0

    def reset(self) -> None:
        super().reset()
        self._port_free = 0

    @property
    def port_free_cycle(self) -> int:
        return self._port_free

    def try_issue(
        self, warp: WarpState, inst: TraceInstruction, cycle: int
    ) -> IssueResult:
        if self._port_free > cycle:
            self.counters["dispatch_stalls"] += 1
            return None
        completion, transactions, port_cycles = self.memory.access_global(
            self.sm_id, inst, cycle
        )
        occupancy = max(
            ceil_div(transactions, self.sm_config.ldst_throughput), port_cycles
        )
        self._port_free = cycle + occupancy
        self.counters["instructions"] += 1
        self.counters["transactions"] += transactions
        return completion


class AnalyticalLDSTUnit(Module, InstructionSink):
    """Eq. 1 analytical LD/ST unit (Swift-Sim-Memory's memory slot)."""

    component = "ldst_unit"
    level = ModelLevel.ANALYTICAL

    def __init__(
        self, sm_id: int, sm_config: SMConfig, model: AnalyticalMemoryModel, name: str = ""
    ) -> None:
        super().__init__(name or "ldst")
        self.sm_id = sm_id
        self.sm_config = sm_config
        self.model = model
        self._port_free = 0

    def reset(self) -> None:
        super().reset()
        self._port_free = 0

    @property
    def port_free_cycle(self) -> int:
        return self._port_free

    def try_issue(
        self, warp: WarpState, inst: TraceInstruction, cycle: int
    ) -> IssueResult:
        if self._port_free > cycle:
            self.counters["dispatch_stalls"] += 1
            return None
        # The analytical model never rejects: queueing is folded into the
        # expected latency, so the sub-core port only paces issue.
        self._port_free = cycle + 1
        completion, transactions = self.model.access_global(self.sm_id, inst, cycle)
        self.counters["instructions"] += 1
        self.counters["transactions"] += transactions
        return completion


class DetailedLDSTUnit(Module, InstructionSink):
    """Per-cycle LD/ST unit bridging to the detailed memory pipeline."""

    component = "ldst_unit"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(
        self,
        sm_id: int,
        sm_config: SMConfig,
        memory: DetailedMemorySystem,
        listener: CompletionListener,
        name: str = "",
    ) -> None:
        super().__init__(name or "ldst")
        self.sm_id = sm_id
        self.sm_config = sm_config
        self.memory = memory
        self.listener = listener
        self._port_free = 0

    def reset(self) -> None:
        super().reset()
        self._port_free = 0

    @property
    def port_free_cycle(self) -> int:
        return self._port_free

    def try_issue(
        self, warp: WarpState, inst: TraceInstruction, cycle: int
    ) -> IssueResult:
        if self._port_free > cycle:
            self.counters["dispatch_stalls"] += 1
            return None
        # The memory system retains listener/warp/inst until completion:
        # that alias IS the designed completion back-channel (it answers
        # through the on_complete port, never by mutating them mid-run).
        accepted = self.memory.issue_global(
            self.sm_id, self.listener, warp, inst, cycle
        )
        if not accepted:
            self.counters["queue_stalls"] += 1
            return None
        self._port_free = cycle + 1
        self.counters["instructions"] += 1
        return PENDING


class SharedMemoryUnit(Module, InstructionSink):
    """Shared-memory access modeling for one SM.

    Cycle-accurate flavour: the conflict degree — the worst number of
    distinct 4-byte words mapping to one of the 32 banks — serializes the
    access, and the unit's port is held for that many cycles.  Analytical
    flavour: fixed latency, single-cycle port (the "simple model" the
    paper references for shared memory).
    """

    component = "shared_memory"

    def __init__(self, sm_config: SMConfig, analytical: bool, name: str = "shared_mem") -> None:
        super().__init__(name)
        self.sm_config = sm_config
        self.analytical = analytical
        self.level = ModelLevel.ANALYTICAL if analytical else ModelLevel.CYCLE_ACCURATE
        self._port_free = 0

    def reset(self) -> None:
        super().reset()
        self._port_free = 0

    @property
    def port_free_cycle(self) -> int:
        return self._port_free

    def conflict_degree(self, inst: TraceInstruction) -> int:
        """Worst-case per-bank serialization of one shared access."""
        banks = self.sm_config.shared_mem_banks
        per_bank = {}
        for addr in inst.addresses:
            word = addr // 4
            bank = word % banks
            words = per_bank.setdefault(bank, set())
            words.add(word)
        if not per_bank:
            return 1
        return max(len(words) for words in per_bank.values())

    def try_issue(
        self, warp: WarpState, inst: TraceInstruction, cycle: int
    ) -> IssueResult:
        if self._port_free > cycle:
            self.counters["dispatch_stalls"] += 1
            return None
        base = self.sm_config.shared_mem_latency
        if self.analytical:
            self._port_free = cycle + 1
            self.counters["instructions"] += 1
            return cycle + base
        degree = self.conflict_degree(inst)
        if degree > 1:
            self.counters["bank_conflicts"] += degree - 1
        self._port_free = cycle + degree
        self.counters["instructions"] += 1
        return cycle + base + degree - 1
