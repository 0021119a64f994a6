"""Assembled GPU performance simulators.

Four simulators built from the same framework modules, differing only
in their :class:`~repro.sim.plan.ModelingPlan`:

* :class:`AccelSimLike` — the fully cycle-accurate baseline,
* :class:`SwiftSimBasic` — hybrid ALU pipeline (paper §III-D1),
* :class:`SwiftSimMemory` — Basic + Eq. 1 analytical memory (§III-D2),
* :class:`SwiftSimAnalytic` — fully closed-form over pre-characterized
  tasklists (PPT-GPU idiom; supports batched ``evaluate_batch``),

plus the multiprocess parallel driver the paper's §IV-B2 speedup analysis
uses.  :data:`SIMULATORS` is the one registry of the names the CLI and
the sweep service accept.
"""

from typing import Dict

from repro.simulators.accel_like import AccelSimLike
from repro.simulators.base import GPUSimulator, PlanSimulator
from repro.simulators.interval import IntervalSimulator
from repro.simulators.parallel import simulate_apps_parallel
from repro.simulators.results import KernelResult, SimulationResult
from repro.simulators.sampled import SampledSimulator
from repro.simulators.swift_analytic import SwiftSimAnalytic
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory

#: Simulator classes by the name ``--simulator`` and serve jobs use.
SIMULATORS: Dict[str, type] = {
    "accel-like": AccelSimLike,
    "swift-basic": SwiftSimBasic,
    "swift-memory": SwiftSimMemory,
    "swift-analytic": SwiftSimAnalytic,
    "interval": IntervalSimulator,
}

__all__ = [
    "AccelSimLike",
    "GPUSimulator",
    "IntervalSimulator",
    "KernelResult",
    "PlanSimulator",
    "SIMULATORS",
    "SampledSimulator",
    "SimulationResult",
    "SwiftSimAnalytic",
    "SwiftSimBasic",
    "SwiftSimMemory",
    "simulate_apps_parallel",
]
