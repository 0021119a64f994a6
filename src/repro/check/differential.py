"""Differential verification across the assembled simulators.

Runs one :class:`ApplicationTrace` through several plan simulators
(by default ``AccelSimLike``, ``SwiftSimBasic``, ``SwiftSimMemory``) and
checks the *declared invariants* that relate them:

* **trace anchoring** — every simulator commits exactly the trace's
  instruction count and retires exactly the trace's block count; the
  kernel sequence (names, order) matches the trace;
* **plan-coincident exactness** — for every component slot that two
  simulators' plans both model ``cycle_accurate``, the declared
  functional counters of that slot must agree *exactly* (identical
  modules fed identical traces make identical decisions in count, even
  when timing differs);
* **bounded divergence** — total cycles of hybrid simulators may differ
  from the cycle-accurate baseline, but only within a declared relative
  tolerance (hybrid modeling is an approximation, not a coin toss).

Exact counters are declared per slot in :data:`SLOT_EXACT_COUNTERS`; a
modeling change that adds a functional counter should extend the table
so the differential runner guards it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.frontend.config import GPUConfig
from repro.frontend.trace import ApplicationTrace
from repro.simulators.base import PlanSimulator
from repro.simulators.results import SimulationResult
from repro.check.report import CheckFinding, info, violation

_CHECK = "differential"

#: Relative cycle divergence allowed between a hybrid simulator and the
#: cycle-accurate baseline (1.0 = 100%).  The paper reports per-app
#: errors well under this; the bound exists to catch *wild* divergence
#: (a broken hybrid model), not to police accuracy.
DEFAULT_TOLERANCE = 1.0

#: Functional (timing-independent) counters per component slot.  When two
#: plans both model a slot ``cycle_accurate``, these totals must agree
#: exactly between their simulators.
SLOT_EXACT_COUNTERS: Dict[str, Sequence[str]] = {
    "block_scheduler": ("blocks_dispatched", "blocks_completed"),
    "warp_scheduler": ("instructions_committed", "barriers"),
}


def _check_trace_anchoring(
    app: ApplicationTrace, result: SimulationResult
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    subject = f"{result.simulator_name} x {app.name}"
    if result.instructions != app.num_instructions:
        findings.append(violation(
            _CHECK, subject,
            f"committed {result.instructions} instructions but the trace "
            f"holds {app.num_instructions}",
        ))
    trace_kernels = [kernel.name for kernel in app.kernels]
    run_kernels = [kernel.name for kernel in result.kernels]
    if trace_kernels != run_kernels:
        findings.append(violation(
            _CHECK, subject,
            f"kernel sequence {run_kernels} does not match trace "
            f"{trace_kernels}",
        ))
    total_blocks = sum(len(kernel.blocks) for kernel in app.kernels)
    if result.metrics is not None:
        for counter in ("blocks_dispatched", "blocks_completed"):
            count = result.metrics.total(counter, prefix="block_scheduler")
            if count != total_blocks:
                findings.append(violation(
                    _CHECK, subject,
                    f"block scheduler {counter}={count} but the trace "
                    f"holds {total_blocks} blocks",
                ))
    return findings


def _coincident_slots(a: PlanSimulator, b: PlanSimulator) -> List[str]:
    return [
        slot
        for slot in SLOT_EXACT_COUNTERS
        if a.plan[slot] == "cycle_accurate" and b.plan[slot] == "cycle_accurate"
    ]


def _check_plan_coincident(
    app_name: str,
    simulators: Sequence[PlanSimulator],
    results: Dict[str, SimulationResult],
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    for i, first in enumerate(simulators):
        for second in simulators[i + 1:]:
            result_a = results[first.name]
            result_b = results[second.name]
            if result_a.metrics is None or result_b.metrics is None:
                continue
            for slot in _coincident_slots(first, second):
                for counter in SLOT_EXACT_COUNTERS[slot]:
                    value_a = result_a.metrics.total(counter)
                    value_b = result_b.metrics.total(counter)
                    if value_a != value_b:
                        findings.append(violation(
                            _CHECK,
                            f"{first.name} vs {second.name} x {app_name}",
                            f"slot {slot!r} is cycle-accurate in both plans "
                            f"but {counter} differs: {value_a} vs {value_b}",
                        ))
    return findings


def _check_bounded_divergence(
    app_name: str,
    baseline: SimulationResult,
    others: Sequence[SimulationResult],
    tolerance: float,
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    if baseline.total_cycles == 0:
        return [violation(_CHECK, f"{baseline.simulator_name} x {app_name}",
                          "baseline simulated zero cycles")]
    for result in others:
        divergence = (
            abs(result.total_cycles - baseline.total_cycles)
            / baseline.total_cycles
        )
        subject = f"{result.simulator_name} x {app_name}"
        if divergence > tolerance:
            findings.append(violation(
                _CHECK, subject,
                f"cycle divergence {divergence:.1%} vs "
                f"{baseline.simulator_name} exceeds the "
                f"{tolerance:.0%} bound "
                f"({result.total_cycles} vs {baseline.total_cycles})",
            ))
        else:
            findings.append(info(
                _CHECK, subject,
                f"cycle divergence {divergence:.1%} vs "
                f"{baseline.simulator_name} within the {tolerance:.0%} bound",
            ))
    return findings


def differential_check(
    config: GPUConfig,
    app: ApplicationTrace,
    tolerance: float = DEFAULT_TOLERANCE,
    simulator_classes: Optional[Sequence[Type[PlanSimulator]]] = None,
) -> List[CheckFinding]:
    """Run ``app`` through all simulators and check declared invariants.

    The first simulator class is treated as the cycle-accurate baseline
    for the bounded-divergence check; the default is the three engine
    tiers of :func:`~repro.check.runner.default_simulators`.
    """
    if not simulator_classes:
        from repro.check.runner import default_simulators

        simulator_classes = default_simulators()
    simulators = [cls(config) for cls in simulator_classes]
    results = {sim.name: sim.simulate(app) for sim in simulators}
    findings: List[CheckFinding] = []
    for sim in simulators:
        findings.extend(_check_trace_anchoring(app, results[sim.name]))
    findings.extend(_check_plan_coincident(app.name, simulators, results))
    ordered = [results[sim.name] for sim in simulators]
    findings.extend(
        _check_bounded_divergence(app.name, ordered[0], ordered[1:], tolerance)
    )
    return findings
