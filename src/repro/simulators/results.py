"""Simulation result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.metrics import MetricsReport


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one kernel launch."""

    name: str
    start_cycle: int
    end_cycle: int
    instructions: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


@dataclass
class SimulationResult:
    """Outcome of simulating one application trace."""

    app_name: str
    simulator_name: str
    gpu_name: str
    total_cycles: int
    kernels: List[KernelResult] = field(default_factory=list)
    metrics: Optional[MetricsReport] = None
    wall_time_seconds: float = 0.0
    #: Time spent in trace-preprocessing passes (hit-rate profiling for the
    #: analytical memory model); reported separately from simulation time.
    profile_seconds: float = 0.0

    @property
    def instructions(self) -> int:
        return sum(kernel.instructions for kernel in self.kernels)

    @property
    def ipc(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.instructions / self.total_cycles

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.simulator_name} x {self.app_name} on "
            f"{self.gpu_name}: {self.total_cycles} cycles, "
            f"{len(self.kernels)} kernels, {self.wall_time_seconds:.2f}s wall)"
        )
