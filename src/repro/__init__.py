"""Swift-Sim: a modular and hybrid GPU architecture simulation framework.

Reproduction of Xu et al., DATE 2025.  The public API re-exports the
pieces a downstream user needs: GPU configuration presets, trace loading
and synthetic workload generation, the three assembled simulators, the
modeling-plan machinery for building custom hybrids, and the evaluation
harness that regenerates the paper's tables and figures.

Quickstart::

    from repro import SwiftSimBasic, get_preset, make_app

    gpu = get_preset("rtx2080ti")
    app = make_app("bfs", scale="tiny")
    result = SwiftSimBasic(gpu).simulate(app)
    print(result.total_cycles, result.ipc)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.check": (
        "CheckReport",
        "EngineSanitizer",
        "differential_check",
        "run_checks",
        "shadow_jump_check",
    ),
    "repro.errors": (
        "CheckError",
        "ConfigError",
        "CorruptResult",
        "MetricsError",
        "PlanError",
        "ResourceExhausted",
        "SimulationError",
        "SwiftSimError",
        "TaskFailure",
        "TaskTimeout",
        "TraceError",
        "WorkerCrash",
        "WorkloadError",
    ),
    "repro.resilience": (
        "ChaosPlan",
        "RetryPolicy",
        "RunJournal",
        "Supervisor",
    ),
    "repro.frontend": (
        "ApplicationTrace",
        "GPUConfig",
        "GPU_PRESETS",
        "KernelTrace",
        "TraceInstruction",
        "WarpTrace",
        "get_preset",
        "load_gpu_config",
        "load_trace",
        "save_gpu_config",
        "save_trace",
    ),
    "repro.sim.plan": (
        "ACCEL_LIKE_PLAN",
        "SWIFT_ANALYTIC_PLAN",
        "SWIFT_BASIC_PLAN",
        "SWIFT_MEMORY_PLAN",
        "ModelingPlan",
    ),
    "repro.simulators": (
        "AccelSimLike",
        "GPUSimulator",
        "IntervalSimulator",
        "PlanSimulator",
        "SampledSimulator",
        "SimulationResult",
        "SwiftSimAnalytic",
        "SwiftSimBasic",
        "SwiftSimMemory",
        "simulate_apps_parallel",
    ),
    "repro.tracegen": ("APPLICATIONS", "make_app"),
})

__version__ = "1.0.0"

__all__ = [
    "ACCEL_LIKE_PLAN",
    "APPLICATIONS",
    "AccelSimLike",
    "ApplicationTrace",
    "ChaosPlan",
    "CheckError",
    "CheckReport",
    "ConfigError",
    "CorruptResult",
    "GPUConfig",
    "GPU_PRESETS",
    "EngineSanitizer",
    "GPUSimulator",
    "IntervalSimulator",
    "KernelTrace",
    "MetricsError",
    "ModelingPlan",
    "PlanError",
    "PlanSimulator",
    "ResourceExhausted",
    "RetryPolicy",
    "RunJournal",
    "SampledSimulator",
    "SWIFT_ANALYTIC_PLAN",
    "SWIFT_BASIC_PLAN",
    "SWIFT_MEMORY_PLAN",
    "SimulationError",
    "SimulationResult",
    "Supervisor",
    "SwiftSimAnalytic",
    "SwiftSimBasic",
    "SwiftSimError",
    "SwiftSimMemory",
    "TaskFailure",
    "TaskTimeout",
    "TraceError",
    "WorkerCrash",
    "TraceInstruction",
    "WarpTrace",
    "WorkloadError",
    "differential_check",
    "get_preset",
    "load_gpu_config",
    "load_trace",
    "make_app",
    "run_checks",
    "save_gpu_config",
    "save_trace",
    "shadow_jump_check",
    "simulate_apps_parallel",
]
