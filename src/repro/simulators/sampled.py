"""Block-sampled simulation (extension).

The paper classifies sampling-based estimation (TBPoint, Photon,
Principal Kernel Analysis) as *orthogonal* to hybrid modeling: samplers
still need a simulator for the sampled portion.  This module provides
that composition as a future-work extension: wrap any
:class:`~repro.simulators.base.PlanSimulator` and simulate only every
k-th thread block of large kernels, extrapolating total cycles under the
steady-state-throughput assumption standard in GPU sampling work.

The estimate is exact for k=1 and increasingly approximate for
heterogeneous kernels (e.g. LU's shrinking steps), which is precisely
the trade the sampling literature documents.
"""

from __future__ import annotations

from typing import List

from repro.core.occupancy import launch_waves
from repro.errors import ConfigError
from repro.frontend.trace import ApplicationTrace, BlockTrace, KernelTrace
from repro.simulators.base import GPUSimulator, PlanSimulator
from repro.simulators.results import KernelResult, SimulationResult


def sample_kernel(kernel: KernelTrace, rate: int) -> KernelTrace:
    """Every ``rate``-th block of ``kernel``, re-numbered densely.

    Block 0 is always kept so non-empty kernels stay non-empty.
    """
    if rate <= 1 or len(kernel.blocks) <= rate:
        return kernel
    picked = kernel.blocks[::rate]
    renumbered = [
        BlockTrace(
            index,
            block.warps,
            shared_mem_bytes=block.shared_mem_bytes,
            regs_per_thread=block.regs_per_thread,
        )
        for index, block in enumerate(picked)
    ]
    return KernelTrace(kernel.name, renumbered)


class SampledSimulator(GPUSimulator):
    """Samples blocks, simulates with an inner simulator, extrapolates.

    ``min_blocks`` guards small kernels: anything at or below it is
    simulated in full (sampling a 4-block kernel saves nothing and risks
    much).
    """

    def __init__(self, inner: PlanSimulator, rate: int = 4, min_blocks: int = 8) -> None:
        super().__init__(inner.config)
        if rate < 1:
            raise ConfigError("sampling rate must be >= 1")
        if min_blocks < 1:
            raise ConfigError("min_blocks must be >= 1")
        self.inner = inner
        self.rate = rate
        self.min_blocks = min_blocks
        self.name = f"{inner.name}+sample{rate}"

    def simulate(self, app: ApplicationTrace, **kwargs) -> SimulationResult:
        """Estimate ``app``; every keyword (``checker`` included) goes
        to the inner simulator, which runs the sampled blocks."""
        kwargs.setdefault("gather_metrics", False)
        sampled_kernels: List[KernelTrace] = []
        scale_factors: List[float] = []
        for kernel in app.kernels:
            if len(kernel.blocks) <= self.min_blocks:
                sampled_kernels.append(kernel)
                scale_factors.append(1.0)
            else:
                sampled = sample_kernel(kernel, self.rate)
                sampled_kernels.append(sampled)
                # Blocks beyond the GPU's concurrent capacity run in later
                # waves; kernel time scales with the wave count, not the
                # raw block count (a 9-block kernel on 68 SMs is one wave
                # whether we simulate 9 blocks or 5).
                full_waves = launch_waves(
                    self.config, kernel.blocks[0], len(kernel.blocks)
                )
                sampled_waves = launch_waves(
                    self.config, kernel.blocks[0], len(sampled.blocks)
                )
                scale_factors.append(full_waves / sampled_waves)
        sampled_app = ApplicationTrace(app.name, sampled_kernels, suite=app.suite)
        inner_result = self.inner.simulate(sampled_app, **kwargs)
        # Extrapolate per kernel: steady-state throughput means kernel
        # duration scales with the block count.
        clock = 0
        kernels: List[KernelResult] = []
        for kernel, measured, factor in zip(
            app.kernels, inner_result.kernels, scale_factors
        ):
            estimated = round(measured.cycles * factor)
            kernels.append(
                KernelResult(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=clock + estimated,
                    instructions=kernel.num_instructions,
                )
            )
            clock += estimated
        return SimulationResult(
            app_name=app.name,
            simulator_name=self.name,
            gpu_name=self.config.name,
            total_cycles=clock,
            kernels=kernels,
            metrics=inner_result.metrics,
            wall_time_seconds=inner_result.wall_time_seconds,
            profile_seconds=inner_result.profile_seconds,
        )
