"""Orchestrates verification pillars over an application selection.

This is what ``repro check`` drives: pick a GPU, a scale, and a set of
applications (explicitly, by suite, or everything), then run one pillar
— or all of them — and aggregate the findings into a
:class:`~repro.check.report.CheckReport`.

Every pillar plugs in through one signature, :data:`Pillar`, and one
table, :data:`PILLARS`; :func:`run_checks` is a loop over it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.errors import CheckError
from repro.frontend.config import GPUConfig
from repro.sim.plan import ACCEL_LIKE_PLAN
from repro.simulators.base import PlanSimulator
from repro.tracegen.suites import APPLICATIONS, app_names, make_app
from repro.check.determinism import determinism_check
from repro.check.differential import DEFAULT_TOLERANCE, differential_check
from repro.check.guard import guard_check
from repro.check.report import MODES, CheckFinding, CheckReport
from repro.check.resilience import resilience_check
from repro.check.sanitizer import sanitize_check
from repro.check.shadow import shadow_jump_check

#: One pillar: (config, app names, scale, simulator classes, workers,
#: tolerance, progress) -> findings.  ``progress`` takes a one-line
#: status string; a pillar ignores the arguments it has no use for.
Pillar = Callable[
    [GPUConfig, Sequence[str], str, Sequence[Type[PlanSimulator]],
     Optional[int], float, Callable[[str], None]],
    List[CheckFinding],
]


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


def default_simulators(mode: str = "all") -> List[Type[PlanSimulator]]:
    """The one default simulator lineup: the three engine tiers.

    The differential pillar adds the closed-form tier when numpy is
    present; it has no engine, so the engine-facing pillars cannot run it.
    """
    from repro.simulators.accel_like import AccelSimLike
    from repro.simulators.swift_basic import SwiftSimBasic
    from repro.simulators.swift_memory import SwiftSimMemory

    lineup: List[Type[PlanSimulator]] = [
        AccelSimLike, SwiftSimBasic, SwiftSimMemory,
    ]
    if mode == "differential":
        from repro.frontend.precharacterize import numpy_available
        from repro.simulators.swift_analytic import SwiftSimAnalytic

        if numpy_available():
            lineup.append(SwiftSimAnalytic)
    return lineup


def _without_baseline(
    simulator_classes: Sequence[Type[PlanSimulator]],
) -> List[Type[PlanSimulator]]:
    """Drop the all-cycle-accurate baseline, wherever it sits, unless it
    is all there is: it would dominate the wall time of the pillars that
    run a suite several times over."""
    hybrids = [
        cls for cls in simulator_classes
        if cls.plan.choices != ACCEL_LIKE_PLAN.choices
    ]
    return hybrids or list(simulator_classes)


def _shadow_jump(config, names, scale, classes, workers, tolerance, progress):
    findings: List[CheckFinding] = []
    for simulator_cls in classes:
        for name in names:
            simulator = simulator_cls(config)
            findings.extend(
                shadow_jump_check(simulator, make_app(name, scale=scale))
            )
            progress(f"shadow-jump {simulator.name} x {name}")
    return findings


def _differential(config, names, scale, classes, workers, tolerance, progress):
    findings: List[CheckFinding] = []
    for name in names:
        findings.extend(differential_check(
            config, make_app(name, scale=scale), tolerance=tolerance,
            simulator_classes=classes,
        ))
        progress(f"differential {name}")
    return findings


def _determinism(config, names, scale, classes, workers, tolerance, progress):
    return determinism_check(
        config, names, scale=scale,
        simulator_classes=_without_baseline(classes), workers=workers,
    )


def _resilience(config, names, scale, classes, workers, tolerance, progress):
    return resilience_check(
        config, names, scale=scale,
        simulator_classes=_without_baseline(classes), workers=workers,
    )


def _serve(config, names, scale, classes, workers, tolerance, progress):
    from repro.check.serve import serve_check

    return serve_check(config, names, scale=scale)


#: Every pillar, in run order.  ``--mode all`` runs all but ``serve``: it
#: binds sockets and spawns server processes, which plain library
#: consumers may not allow, so it runs only by name.
PILLARS: Dict[str, Pillar] = {
    "shadow-jump": _shadow_jump,
    "differential": _differential,
    "determinism": _determinism,
    "sanitize": sanitize_check,
    "resilience": _resilience,
    "guard": guard_check,
    "serve": _serve,
}


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

    ``simulator_classes`` replaces :func:`default_simulators` for every
    pillar.  ``progress``, when given, is called with a one-line string
    after each app-level step (for interactive feedback during long
    runs).
    """
    if mode not in MODES:
        raise CheckError(f"unknown check mode {mode!r}; known: {MODES}")
    names = select_apps(apps, suite)
    report = CheckReport(
        mode=mode,
        gpu_name=config.name,
        scale=scale,
        apps=list(names),
        simulators=[
            cls(config).name
            for cls in simulator_classes or default_simulators(mode)
        ],
    )

    def step(message: str) -> None:
        if progress is not None:
            progress(message)

    if mode == "all":
        selected = [pillar for pillar in PILLARS if pillar != "serve"]
    else:
        selected = [mode]
    for pillar in selected:
        classes = list(simulator_classes or default_simulators(pillar))
        report.extend(PILLARS[pillar](
            config, names, scale, classes, workers, tolerance, step,
        ))
        step(pillar)
    return report
