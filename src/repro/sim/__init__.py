"""Swift-Sim framework core.

This package is the paper's primary contribution: a modular simulation
substrate where every GPU component is an independent
:class:`~repro.sim.module.Module` behind a fixed interface
(:mod:`repro.sim.ports`), driven by a clocked
:class:`~repro.sim.engine.Engine`, with per-component modeling choices
declared in a :class:`~repro.sim.plan.ModelingPlan` and performance
counters harvested by the :class:`~repro.sim.metrics.MetricsGatherer`.
"""

from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.sim.metrics import (
    DuplicateModuleNameWarning,
    MetricsGatherer,
    MetricsReport,
)
from repro.sim.module import Counters, ModelLevel, Module
from repro.sim.plan import (
    ACCEL_LIKE_PLAN,
    COMPONENTS,
    SWIFT_BASIC_PLAN,
    SWIFT_MEMORY_PLAN,
    ModelingPlan,
)
from repro.sim.ports import (
    PENDING,
    CompletionListener,
    InstructionSink,
    IssueResult,
)

__all__ = [
    "ACCEL_LIKE_PLAN",
    "COMPONENTS",
    "SWIFT_BASIC_PLAN",
    "SWIFT_MEMORY_PLAN",
    "ClockedModule",
    "CompletionListener",
    "Counters",
    "DuplicateModuleNameWarning",
    "Engine",
    "EngineChecker",
    "InstructionSink",
    "IssueResult",
    "MetricsGatherer",
    "MetricsReport",
    "ModelLevel",
    "ModelingPlan",
    "Module",
    "PENDING",
]
