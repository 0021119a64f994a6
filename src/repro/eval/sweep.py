"""Design-space sweep utility.

The whole point of Swift-Sim is fast design-space exploration, so the
package ships the loop architects would otherwise write by hand: take a
base GPU, a grid of parameter overrides, and a set of applications;
simulate every combination (optionally with the multiprocess driver);
return a tidy result table.

Overrides address nested configuration fields with dotted paths::

    sweep = DesignSpaceSweep(
        base_gpu,
        {"l1.size_bytes": [32 * 1024, 64 * 1024],
         "sm.scheduler_policy": ["GTO", "LRR"]},
    )
    table = sweep.run(SwiftSimBasic, [make_app("hotspot")])

Every row carries the override values, the application, total cycles,
and IPC, ready for plotting or tabulation (``render()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Sequence, Type

from repro.errors import ConfigError
from repro.frontend.config import GPUConfig, apply_override
from repro.frontend.precharacterize import precharacterize
from repro.frontend.trace import ApplicationTrace
from repro.simulators.base import PlanSimulator


@dataclass(frozen=True)
class SweepPoint:
    """One (configuration, application) measurement."""

    overrides: Mapping[str, Any]
    app_name: str
    total_cycles: int
    ipc: float
    wall_seconds: float


@dataclass
class SweepResult:
    """All measurements of one sweep."""

    points: List[SweepPoint] = field(default_factory=list)

    def best(self, app_name: str) -> SweepPoint:
        """The fastest configuration for one application."""
        candidates = [p for p in self.points if p.app_name == app_name]
        if not candidates:
            raise ConfigError(f"no sweep points for application {app_name!r}")
        return min(candidates, key=lambda p: p.total_cycles)

    def render(self) -> str:
        if not self.points:
            return "(empty sweep)"
        keys = sorted(self.points[0].overrides)
        header = " | ".join([*keys, "app", "cycles", "ipc"])
        lines = [header, "-" * len(header)]
        for point in self.points:
            cells = [str(point.overrides[k]) for k in keys]
            cells += [point.app_name, str(point.total_cycles), f"{point.ipc:.3f}"]
            lines.append(" | ".join(cells))
        return "\n".join(lines)


class DesignSpaceSweep:
    """Cartesian sweep over configuration overrides."""

    def __init__(self, base: GPUConfig, grid: Mapping[str, Sequence[Any]]) -> None:
        if not grid:
            raise ConfigError("sweep grid cannot be empty")
        self.base = base
        self.grid = {path: list(values) for path, values in grid.items()}
        for path, values in self.grid.items():
            if not values:
                raise ConfigError(f"override {path!r} has no values")
            # Validate every value eagerly: a typo should fail before the
            # sweep burns simulation time.
            for value in values:
                apply_override(base, path, value)

    def configurations(self):
        """Yield (overrides dict, GPUConfig) for every grid point.

        Points come in Cartesian-product order over the sorted paths, so
        consecutive points share their leading overrides: each override
        is applied once per distinct prefix, not once per point, and a
        point rebuilds only the sections its trailing axes touch.
        """
        paths = sorted(self.grid)

        def expand(gpu: GPUConfig, chosen: tuple):
            if len(chosen) == len(paths):
                yield dict(zip(paths, chosen)), gpu
                return
            path = paths[len(chosen)]
            for value in self.grid[path]:
                yield from expand(
                    apply_override(gpu, path, value), chosen + (value,)
                )

        yield from expand(self.base, ())

    def run(
        self,
        simulator_cls: Type[PlanSimulator],
        apps: Sequence[ApplicationTrace],
        **simulator_kwargs,
    ) -> SweepResult:
        """Simulate every (configuration, app) pair sequentially."""
        result = SweepResult()
        for overrides, gpu in self.configurations():
            simulator = simulator_cls(gpu, **simulator_kwargs)
            for app in apps:
                run = simulator.simulate(app, gather_metrics=False)
                result.points.append(
                    SweepPoint(
                        overrides=overrides,
                        app_name=app.name,
                        total_cycles=run.total_cycles,
                        ipc=run.ipc,
                        wall_seconds=run.wall_time_seconds,
                    )
                )
        return result

    def run_batched(
        self,
        apps: Sequence[ApplicationTrace],
        simulator_cls: Type = None,
    ) -> SweepResult:
        """Resolve the whole grid with one vectorized call per app.

        Uses the closed-form tier's ``evaluate_batch``: every grid point
        becomes one lane of a batched parameter array, so thousands of
        (app, config) points cost one tasklist pass plus vectorized
        arithmetic.  Each lane is bit-identical to what ``run`` with
        ``SwiftSimAnalytic`` would report, point for point.
        """
        if simulator_cls is None:
            from repro.simulators.swift_analytic import SwiftSimAnalytic

            simulator_cls = SwiftSimAnalytic
        if not hasattr(simulator_cls, "evaluate_batch"):
            raise ConfigError(
                f"{simulator_cls.__name__} has no evaluate_batch; "
                f"use run() for engine-based simulators"
            )
        grid_points = list(self.configurations())
        configs = [gpu for __, gpu in grid_points]
        simulator = simulator_cls(self.base)
        lanes = []
        for app in apps:
            started = time.perf_counter()
            totals = simulator.evaluate_batch(app, configs)
            share = (time.perf_counter() - started) / len(grid_points)
            # The tasklist evaluate_batch just priced already counted the
            # trace; asking the trace again would re-walk it.
            instructions = precharacterize(app).num_instructions
            lanes.append((app.name, totals.tolist(), instructions, share))
        result = SweepResult()
        # Emit in run()'s (configuration, app) order so the two paths
        # produce interchangeable tables.
        for lane, (overrides, __) in enumerate(grid_points):
            for app_name, totals, instructions, share in lanes:
                cycles = totals[lane]
                result.points.append(
                    SweepPoint(
                        overrides=overrides,
                        app_name=app_name,
                        total_cycles=cycles,
                        ipc=instructions / cycles if cycles else 0.0,
                        wall_seconds=share,
                    )
                )
        return result
