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

from collections.abc import Mapping

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.simulators.accel_like": ("AccelSimLike",),
    "repro.simulators.base": ("GPUSimulator", "PlanSimulator"),
    "repro.simulators.interval": ("IntervalSimulator",),
    "repro.simulators.parallel": ("simulate_apps_parallel",),
    "repro.simulators.results": ("KernelResult", "SimulationResult"),
    "repro.simulators.sampled": ("SampledSimulator",),
    "repro.simulators.swift_analytic": ("SwiftSimAnalytic",),
    "repro.simulators.swift_basic": ("SwiftSimBasic",),
    "repro.simulators.swift_memory": ("SwiftSimMemory",),
})


class _SimulatorRegistry(Mapping):
    """Read-only ``name -> simulator class``; a class is imported when
    its name is looked up, never by listing or testing names."""

    def __init__(self, exports):
        self._exports = exports

    def __getitem__(self, name):
        return __getattr__(self._exports[name])

    def __contains__(self, name):
        return name in self._exports

    def __iter__(self):
        return iter(self._exports)

    def __len__(self):
        return len(self._exports)


#: Simulator classes by the name ``--simulator`` and serve jobs use.
SIMULATORS = _SimulatorRegistry({
    "accel-like": "AccelSimLike",
    "swift-basic": "SwiftSimBasic",
    "swift-memory": "SwiftSimMemory",
    "swift-analytic": "SwiftSimAnalytic",
    "interval": "IntervalSimulator",
})

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
