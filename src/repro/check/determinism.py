"""Determinism verification: serial, parallel, and repeated runs agree.

Three reproducibility contracts, each load-bearing for the ROADMAP's
push toward sharding/async/caching:

* **repeatability** — regenerating a workload (every generator is
  seeded via :func:`repro.utils.rng.derive_seed`) and re-simulating it
  must reproduce the cycle timeline *and every counter* bit-identically;
* **serial/parallel equivalence** — the multiprocess
  :func:`repro.simulators.parallel.simulate_apps_parallel` driver must
  return exactly what in-process serial simulation returns (workers
  rebuild simulators from picklable state; nothing may leak in);
* **harness equivalence** — the serial :class:`repro.eval.harness`
  evaluation path must report the same cycles as the parallel driver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.eval.harness import EvaluationHarness
from repro.frontend.config import GPUConfig
from repro.simulators.base import PlanSimulator
from repro.simulators.parallel import simulate_apps_parallel
from repro.tracegen.suites import make_app
from repro.check.report import CheckFinding, info, violation
from repro.check.shadow import compare_results

_CHECK = "determinism"


def _check_repeatability(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app_name: str,
    scale: str,
) -> List[CheckFinding]:
    """Two independent generate+simulate passes must be bit-identical."""
    runs = []
    for _ in range(2):
        app = make_app(app_name, scale=scale)
        runs.append(simulator_cls(config).simulate(app))
    first, second = runs
    subject = f"{first.simulator_name} x {app_name}"
    findings = compare_results(
        subject, first, second, ignore_counters=frozenset(), check=_CHECK,
        labels=("first", "second"),
    )
    if not findings:
        findings.append(info(
            _CHECK, subject,
            f"two generate+simulate passes bit-identical "
            f"({first.total_cycles} cycles)",
        ))
    return findings


def _check_parallel_equivalence(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    workers: Optional[int] = None,
) -> List[CheckFinding]:
    """Serial in-process, pooled, and harness runs must agree exactly."""
    findings: List[CheckFinding] = []
    apps = [make_app(name, scale=scale) for name in app_names]
    simulator = simulator_cls(config)
    serial = simulate_apps_parallel(simulator, apps, workers=1)
    pooled = simulate_apps_parallel(
        simulator, apps, workers=workers if workers is not None else 2
    )
    harness = EvaluationHarness(config, scale=scale, apps=list(app_names))
    suite = harness.evaluate({simulator.name: simulator_cls(config)})
    harness_cycles: Dict[str, int] = {
        row.app_name: row.cycles[simulator.name] for row in suite.rows
    }
    for app in apps:
        subject = f"{simulator.name} x {app.name}"
        serial_result = serial[app.name]
        findings.extend(compare_results(
            subject, serial_result, pooled[app.name],
            ignore_counters=frozenset(), check=_CHECK,
            labels=("serial", "pooled"),
        ))
        if harness_cycles[app.name] != serial_result.total_cycles:
            findings.append(violation(
                _CHECK, subject,
                f"eval harness cycles differ from parallel driver: "
                f"{harness_cycles[app.name]} vs {serial_result.total_cycles}",
            ))
    if not findings:
        findings.append(info(
            _CHECK, simulator.name,
            f"serial, pooled, and harness runs identical over "
            f"{len(apps)} app(s)",
        ))
    return findings


def determinism_check(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str = "tiny",
    simulator_classes: Optional[Sequence[Type[PlanSimulator]]] = None,
    workers: Optional[int] = None,
) -> List[CheckFinding]:
    """Run all determinism contracts over ``app_names``."""
    if simulator_classes is None:
        from repro.simulators.swift_basic import SwiftSimBasic

        simulator_classes = [SwiftSimBasic]
    findings: List[CheckFinding] = []
    for simulator_cls in simulator_classes:
        for app_name in app_names:
            findings.extend(
                _check_repeatability(simulator_cls, config, app_name, scale)
            )
        findings.extend(_check_parallel_equivalence(
            simulator_cls, config, app_names, scale, workers=workers
        ))
    return findings
