"""repro.profile: cycle-attribution profiling.

A low-overhead :class:`ModuleProfiler` (an engine checker) attributes
wall-clock time, tick counts and event-jump efficiency to every clocked
module; :class:`ProfileReport` renders the attribution as text or JSON;
:func:`profile_simulation` runs one simulation under it.  ``repro
profile`` is the CLI front end, and the performance benchmark
(``benchmarks/perf``) reads its exact engine counts through the same call.

See ``docs/performance.md`` for the workflow.
"""

from repro.profile.profiler import ModuleProfiler, ModuleStats
from repro.profile.report import ProfileReport
from repro.profile.runner import profile_simulation

__all__ = [
    "ModuleProfiler",
    "ModuleStats",
    "ProfileReport",
    "profile_simulation",
]
