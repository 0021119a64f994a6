"""One-call profiling of an assembled simulator.

:func:`profile_simulation` attaches a fresh
:class:`~repro.profile.profiler.ModuleProfiler` to a simulator's
``simulate`` call and returns both the ordinary
:class:`~repro.simulators.results.SimulationResult` and the
:class:`~repro.profile.report.ProfileReport` built from it.

Every simulator takes ``checker=`` (``docs/architecture.md``
§ "Simulator contract").  A tier with no engine ignores it, so its
report has phases and wall-clock from the result and an empty module
table.
"""

from __future__ import annotations

from typing import Tuple

from repro.frontend.trace import ApplicationTrace
from repro.profile.profiler import ModuleProfiler
from repro.profile.report import ProfileReport
from repro.simulators.results import SimulationResult


def profile_simulation(
    simulator, app: ApplicationTrace, **simulate_kwargs
) -> Tuple[SimulationResult, ProfileReport]:
    """Run ``simulator.simulate(app)`` under a module profiler.

    Extra keyword arguments are forwarded to ``simulate`` (e.g.
    ``gather_metrics=False``).  Returns ``(result, report)``.
    """
    profiler = ModuleProfiler()
    result = simulator.simulate(app, checker=profiler, **simulate_kwargs)
    return result, ProfileReport(profiler, result)
