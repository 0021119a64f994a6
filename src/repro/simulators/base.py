"""Common simulator driver: plan-directed assembly plus the kernel loop.

:class:`PlanSimulator` turns a :class:`~repro.sim.plan.ModelingPlan` into
a working simulator: it builds the memory system the plan asks for,
wires sub-cores whose sinks match the plan's per-component choices, and
runs each kernel of an application on a shared, continuous cycle
timeline (so cross-kernel cache warmth and reservation state carry over
exactly as on hardware).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.core.alu_analytical import HybridALUModel
from repro.core.block_scheduler import BlockScheduler
from repro.core.execution_unit import PipelinedExecutionUnit, ResultBus
from repro.core.ldst_unit import (
    AnalyticalLDSTUnit,
    DetailedLDSTUnit,
    QueuedLDSTUnit,
    SharedMemoryUnit,
)
from repro.core.sm import SMCore
from repro.core.subcore import SubCore
from repro.core.warp_scheduler import make_warp_scheduler
from repro.errors import PlanError
from repro.frontend.config import GPUConfig
from repro.frontend.trace import ApplicationTrace
from repro.memory.analytical import (
    HIT_RATE_SOURCES,
    AnalyticalMemoryModel,
    MemoryProfile,
    unknown_hit_rate_source,
)
from repro.memory.hierarchy import DetailedMemorySystem, QueuedMemorySystem
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsGatherer
from repro.sim.module import Module
from repro.sim.plan import ModelingPlan
from repro.simulators.results import KernelResult, SimulationResult

#: Per-kernel cycle backstop against modeling deadlocks.
DEFAULT_MAX_KERNEL_CYCLES = 200_000_000


class GPUSimulator:
    """The one simulator contract every tier keeps.

    ``name`` is the tier's key in :data:`repro.simulators.SIMULATORS`
    (a custom plan's name for a custom plan), and ``simulate`` takes the
    keywords ``gather_metrics`` and ``checker`` (an
    :class:`~repro.sim.engine.EngineChecker`).  A tier with no engine
    ignores the checker.  A simulator pickles as itself, so the parallel
    driver ships it to a worker whole.
    """

    name = "simulator"

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def simulate(
        self, app: ApplicationTrace, *, gather_metrics: bool = True, checker=None
    ) -> SimulationResult:
        raise NotImplementedError


class PlanSimulator(GPUSimulator):
    """A simulator assembled from a :class:`ModelingPlan`."""

    #: Subclasses set the plan; instances may override it.
    plan: ModelingPlan

    def __init__(
        self,
        config: GPUConfig,
        plan: Optional[ModelingPlan] = None,
        hit_rate_source: str = "cache_sim",
    ) -> None:
        super().__init__(config)
        if plan is not None:
            self.plan = plan
        if not hasattr(self, "plan"):
            raise PlanError(f"{type(self).__name__} has no modeling plan")
        if hit_rate_source not in HIT_RATE_SOURCES:
            raise unknown_hit_rate_source(hit_rate_source)
        self.hit_rate_source = hit_rate_source
        self.name = self.plan.name

    # ------------------------------------------------------------------
    # assembly

    def _build_memory(self):
        choice = self.plan["memory"]
        if choice == "cycle_accurate":
            return DetailedMemorySystem(self.config)
        if choice == "queued":
            return QueuedMemorySystem(self.config)
        return None  # analytical: built per kernel from its profile

    def _build_analytical_memory(self, app: ApplicationTrace) -> List[AnalyticalMemoryModel]:
        """One Eq. 1 model per kernel, profiled with cross-kernel warmth."""
        profiles = MemoryProfile.for_application(
            self.config, app.kernels, source=self.hit_rate_source, memo_key=app
        )
        return [AnalyticalMemoryModel(self.config, profile) for profile in profiles]

    def _subcore_factory(self, memory) -> Callable[[SMCore, int], SubCore]:
        plan = self.plan
        sm_config = self.config.sm
        alu_cycle_accurate = plan["alu_pipeline"] == "cycle_accurate"
        shared_analytical = plan["shared_memory"] == "analytical"
        memory_choice = plan["memory"]

        def factory(sm: SMCore, sub_id: int) -> SubCore:
            result_bus = ResultBus(sm_config.issue_width)

            def exec_unit_factory(subcore: SubCore, unit_config):
                if alu_cycle_accurate:
                    return PipelinedExecutionUnit(unit_config, subcore, result_bus)
                return HybridALUModel(unit_config)

            def ldst_factory(subcore: SubCore):
                if memory_choice == "cycle_accurate":
                    return DetailedLDSTUnit(sm.sm_id, sm_config, memory, subcore)
                if memory_choice == "queued":
                    return QueuedLDSTUnit(sm.sm_id, sm_config, memory)
                return AnalyticalLDSTUnit(sm.sm_id, sm_config, memory)

            shared_unit = sm.shared_unit
            if shared_unit is None:
                shared_unit = SharedMemoryUnit(sm_config, analytical=shared_analytical)
                sm.shared_unit = shared_unit

            return SubCore(
                sm,
                sub_id,
                sm_config,
                make_warp_scheduler(sm_config.scheduler_policy),
                exec_unit_factory,
                ldst_factory,
                lambda subcore: shared_unit,
                use_frontend=plan["frontend"] == "cycle_accurate",
                use_collector=plan["operand_collector"] == "cycle_accurate",
            )

        return factory

    # ------------------------------------------------------------------
    # the kernel loop

    def simulate(
        self,
        app: ApplicationTrace,
        max_kernel_cycles: int = DEFAULT_MAX_KERNEL_CYCLES,
        gather_metrics: bool = True,
        engine_allow_jump: Optional[bool] = None,
        checker=None,
        guard=None,
    ) -> SimulationResult:
        """Simulate ``app`` and return a :class:`SimulationResult`.

        Beyond the contract's keywords (:class:`GPUSimulator`), only an
        engine tier takes ``max_kernel_cycles``, ``engine_allow_jump``
        and ``guard``.

        ``engine_allow_jump`` overrides the *engine's* clocking mode only
        — module assembly still follows the plan — so :mod:`repro.check`
        can shadow-run a jump-clocked plan per-cycle (the jump contract
        says both must be bit-identical).  ``checker`` is an optional
        :class:`~repro.sim.engine.EngineChecker` attached to every
        kernel's engine (the runtime sanitizer).

        ``guard`` is an optional :class:`repro.guard.SimulationGuard`:
        it arms the progress watchdog and invariant guards on each
        kernel's engine.  A guard with everything disabled attaches
        nothing, so the engine keeps its fast dispatch loop.
        """
        plan_jump = self.plan["clocking"] == "event_jump"
        allow_jump = plan_jump if engine_allow_jump is None else engine_allow_jump
        persistent_memory = self._build_memory()
        clock = 0
        kernel_results = []
        roots = []
        analytical_models = []
        profile_started = time.perf_counter()
        if persistent_memory is not None:
            roots.append(persistent_memory)
        else:
            # Hit-rate profiling is trace preprocessing (like trace
            # capture itself); it is timed separately from the
            # simulation proper.
            analytical_models = self._build_analytical_memory(app)
            roots.extend(analytical_models)
        profile_seconds = time.perf_counter() - profile_started
        started = time.perf_counter()
        for kernel_index, kernel in enumerate(app.kernels):
            if persistent_memory is None:
                memory = analytical_models[kernel_index]
            else:
                memory = persistent_memory
            scheduler = BlockScheduler(kernel)
            # An SM takes at most one block per cycle, in rank order,
            # so only the first min(num_sms, blocks) SMs ever hold one;
            # the rest could decide nothing and are not built.
            num_sms = min(self.config.num_sms, len(kernel.blocks))
            sms = [
                SMCore(
                    sm_id,
                    self.config,
                    scheduler,
                    self._subcore_factory(memory),
                )
                for sm_id in range(num_sms)
            ]
            engine = Engine(allow_jump=allow_jump, start_cycle=clock)
            if guard is not None:
                guard.begin_kernel(engine, kernel_index, extra_checker=checker)
            elif checker is not None:
                engine.attach_checker(checker)
            for sm in sms:
                sm.attach_engine(engine)
                engine.add(sm, start_cycle=clock)
            if isinstance(memory, DetailedMemorySystem):
                memory.attach_engine(engine)
                engine.add(memory, start_cycle=clock)
            end = engine.run(max_cycles=clock + max_kernel_cycles)
            end = max(end, scheduler.last_completion_cycle, *(sm.last_completion for sm in sms))
            kernel_results.append(
                KernelResult(
                    name=kernel.name,
                    start_cycle=clock,
                    end_cycle=end,
                    instructions=kernel.num_instructions,
                )
            )
            clock = end
            roots.append(scheduler)
            roots.extend(sms)
        wall = time.perf_counter() - started
        metrics = MetricsGatherer(roots).gather(clock) if gather_metrics else None
        return SimulationResult(
            app_name=app.name,
            simulator_name=self.name,
            gpu_name=self.config.name,
            total_cycles=clock,
            kernels=kernel_results,
            metrics=metrics,
            wall_time_seconds=wall,
            profile_seconds=profile_seconds,
        )
