"""Orchestrates verification pillars over an application selection.

This is what ``repro check`` drives: pick a GPU, a scale, and a set of
applications (explicitly, by suite, or everything), then run one pillar
— or all of them — and aggregate the findings into a
:class:`~repro.check.report.CheckReport`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from repro.errors import CheckError
from repro.frontend.config import GPUConfig
from repro.simulators.base import PlanSimulator
from repro.tracegen.suites import APPLICATIONS, app_names, make_app
from repro.check.determinism import determinism_check
from repro.check.differential import DEFAULT_TOLERANCE, differential_check
from repro.check.guard import guard_check
from repro.check.report import MODES, CheckReport, info
from repro.check.resilience import resilience_check
from repro.check.sanitizer import EngineSanitizer
from repro.check.shadow import shadow_jump_check
from repro.check.static import static_check


def select_apps(
    apps: Optional[Sequence[str]] = None, suite: Optional[str] = None
) -> List[str]:
    """Resolve an application selection: explicit names win, then suite
    membership, then every registered application."""
    if apps:
        unknown = [name for name in apps if name.lower() not in APPLICATIONS]
        if unknown:
            raise CheckError(
                f"unknown application(s) {unknown}; see `repro apps`"
            )
        return [name.lower() for name in apps]
    if suite and suite != "all":
        selected = [
            name for name, (app_suite, _) in APPLICATIONS.items()
            if app_suite == suite
        ]
        if not selected:
            known = sorted({app_suite for app_suite, _ in APPLICATIONS.values()})
            raise CheckError(f"unknown suite {suite!r}; known: {known}")
        return selected
    return app_names()


def _default_simulators() -> List[Type[PlanSimulator]]:
    from repro.simulators.accel_like import AccelSimLike
    from repro.simulators.swift_basic import SwiftSimBasic
    from repro.simulators.swift_memory import SwiftSimMemory

    return [AccelSimLike, SwiftSimBasic, SwiftSimMemory]


def _run_sanitize(
    config: GPUConfig,
    names: Sequence[str],
    scale: str,
    simulator_classes: Sequence[Type[PlanSimulator]],
) -> List:
    findings = []
    for simulator_cls in simulator_classes:
        for name in names:
            app = make_app(name, scale=scale)
            simulator = simulator_cls(config)
            sanitizer = EngineSanitizer()
            simulator.simulate(app, gather_metrics=False, checker=sanitizer)
            findings.extend(sanitizer.findings)
            if sanitizer.ok:
                findings.append(info(
                    "sanitizer", f"{simulator.name} x {name}",
                    f"clean: {sanitizer.ticks_observed} ticks, "
                    f"{sanitizer.wakes_observed} wakes, 0 violations",
                ))
    return findings


def run_checks(
    config: GPUConfig,
    mode: str = "all",
    apps: Optional[Sequence[str]] = None,
    suite: Optional[str] = None,
    scale: str = "tiny",
    tolerance: float = DEFAULT_TOLERANCE,
    simulator_classes: Optional[Sequence[Type[PlanSimulator]]] = None,
    workers: Optional[int] = None,
    progress=None,
) -> CheckReport:
    """Run the requested verification ``mode`` and return its report.

    ``progress``, when given, is called with a one-line string after each
    app-level step (for interactive feedback during long runs).
    """
    if mode not in MODES:
        raise CheckError(f"unknown check mode {mode!r}; known: {MODES}")
    names = select_apps(apps, suite)
    classes = (
        list(simulator_classes) if simulator_classes else _default_simulators()
    )
    report = CheckReport(
        mode=mode,
        gpu_name=config.name,
        scale=scale,
        apps=list(names),
        simulators=[cls(config).name for cls in classes],
    )

    def step(message: str) -> None:
        if progress is not None:
            progress(message)

    if mode in ("shadow-jump", "all"):
        for simulator_cls in classes:
            for name in names:
                app = make_app(name, scale=scale)
                report.extend(shadow_jump_check(simulator_cls(config), app))
                report.checks_run += 1
                step(f"shadow-jump {simulator_cls(config).name} x {name}")
    if mode in ("differential", "all"):
        # The closed-form tier joins the default differential lineup (it
        # has no engine, so the engine-facing pillars skip it); explicit
        # simulator selections are honored as given.
        differential_classes = list(classes)
        if simulator_classes is None:
            from repro.frontend.precharacterize import numpy_available
            from repro.simulators.swift_analytic import SwiftSimAnalytic

            if numpy_available():
                differential_classes.append(SwiftSimAnalytic)
        for name in names:
            app = make_app(name, scale=scale)
            report.extend(differential_check(
                config, app, tolerance=tolerance,
                simulator_classes=differential_classes,
            ))
            report.checks_run += 1
            step(f"differential {name}")
    if mode in ("determinism", "all"):
        report.extend(determinism_check(
            config, names, scale=scale,
            simulator_classes=classes[1:] or classes, workers=workers,
        ))
        report.checks_run += 1
        step("determinism")
    if mode in ("sanitize", "all"):
        report.extend(_run_sanitize(config, names, scale, classes))
        report.checks_run += len(names) * len(classes)
        step("sanitize")
    if mode in ("resilience", "all"):
        # Chaos convergence + journal resume on the hybrid simulators
        # (the cycle-accurate baseline is covered by determinism and
        # would dominate the wall time here).
        report.extend(resilience_check(
            config, names, scale=scale,
            simulator_classes=classes[1:] or classes, workers=workers,
        ))
        report.checks_run += 2
        step("resilience")
    if mode in ("static", "all"):
        report.extend(static_check())
        report.checks_run += 1
        step("static")
    if mode in ("guard", "all"):
        # Guarded-run transparency + kill-and-resume on every simulator
        # (the resume contract explicitly covers the cycle-accurate
        # baseline), plus stall/invariant detection scenarios.
        report.extend(guard_check(
            config, names, scale=scale, simulator_classes=classes,
            progress=progress,
        ))
        report.checks_run += len(names) * len(classes)
        step("guard")
    if mode == "serve":
        # Kill/resume convergence, cache-hit ratio, and degradation
        # tagging against real server subprocesses (docs/serving.md).
        # Deliberately not part of "all": it binds sockets and spawns
        # processes, which plain library consumers may not allow.
        from repro.check.serve import serve_check

        report.extend(serve_check(config, names, scale=scale))
        report.checks_run += 3
        step("serve")
    return report
