"""Shadow clocking check: jump vs per-cycle engine bit-equivalence.

Clock jumping is advertised as *exact*: a module returning a wake cycle
``w`` asserts nothing observable changes before ``w``, so running the
very same module assembly under a per-cycle engine (every jump clamped
to ``cycle + 1``) must produce bit-identical results.  This check runs a
workload twice — once with the plan's own engine clocking, once with the
engine mode inverted while the assembly stays untouched — and compares:

* final cycle and per-kernel (name, start, end, instructions) tuples,
* total committed instructions,
* every module counter, except the declared *tick observers*.

Tick observers are counters incremented at most once per engine tick a
module receives (``active_cycles``, stall tallies, ...): they measure
how often the engine *looked*, not what the architecture *did*, so they
legitimately differ between clocking modes and are excluded from the
bit-identity requirement.  Everything else — cache counters, committed
instructions, queue-delay sums — must match exactly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend.trace import ApplicationTrace
from repro.simulators.base import PlanSimulator
from repro.simulators.results import SimulationResult
from repro.check.report import CheckFinding, info, violation

#: Counters that tally engine ticks (or per-tick conditions) rather than
#: architectural events.  Each is incremented at most once per tick a
#: module receives, so per-cycle clocking legitimately inflates them.
TICK_OBSERVER_COUNTERS = frozenset({
    "active_cycles",
    "idle_cycles",
    "stalled_cycles",
    "dispatch_stalls",
    "scoreboard_wait_cycles",
    "drain_wait_cycles",
    "fetch_idle_cycles",
    "ibuffer_empty_cycles",
})

_CHECK = "shadow-jump"


def compare_results(
    subject: str,
    primary: SimulationResult,
    shadow: SimulationResult,
    ignore_counters: frozenset = TICK_OBSERVER_COUNTERS,
    check: str = _CHECK,
    labels: tuple = ("jump", "per-cycle"),
) -> List[CheckFinding]:
    """Findings for any observable difference between two runs.

    The one bit-identity comparator: the shadow-jump pillar (its home),
    the guard, determinism and resilience pillars and the
    dispatch-equivalence tests all reduce to "these two runs must
    agree on everything" — ``check`` tags whose contract a difference
    violates and ``labels`` names the two runs in the findings.
    Counters are compared only when both results carry metrics (results
    from worker processes or a journal carry none).
    """
    findings: List[CheckFinding] = []
    if primary.total_cycles != shadow.total_cycles:
        findings.append(violation(
            check, subject,
            f"final cycle differs: {labels[0]}={primary.total_cycles} "
            f"{labels[1]}={shadow.total_cycles}",
        ))
    a_kernels = [(k.name, k.start_cycle, k.end_cycle, k.instructions)
                 for k in primary.kernels]
    b_kernels = [(k.name, k.start_cycle, k.end_cycle, k.instructions)
                 for k in shadow.kernels]
    if a_kernels != b_kernels:
        findings.append(violation(
            check, subject,
            f"per-kernel (name, start, end, instructions) differ: "
            f"{a_kernels} vs {b_kernels}",
        ))
    if primary.instructions != shadow.instructions:
        findings.append(violation(
            check, subject,
            f"committed instructions differ: {primary.instructions} "
            f"vs {shadow.instructions}",
        ))
    if primary.metrics is not None and shadow.metrics is not None:
        a_metrics = primary.metrics.as_dict()
        b_metrics = shadow.metrics.as_dict()
        for module in sorted(set(a_metrics) | set(b_metrics)):
            a_counters = a_metrics.get(module, {})
            b_counters = b_metrics.get(module, {})
            for counter in sorted(set(a_counters) | set(b_counters)):
                if counter in ignore_counters:
                    continue
                a_value = a_counters.get(counter, 0)
                b_value = b_counters.get(counter, 0)
                if a_value != b_value:
                    findings.append(violation(
                        check, subject,
                        f"counter {module}.{counter} differs: "
                        f"{a_value} vs {b_value}",
                    ))
    return findings


def shadow_jump_check(
    simulator: PlanSimulator,
    app: ApplicationTrace,
    max_kernel_cycles: Optional[int] = None,
) -> List[CheckFinding]:
    """Run ``app`` under both engine clockings and demand bit-identity.

    The module assembly follows ``simulator``'s plan both times; only the
    engine's ``allow_jump`` flag is inverted for the shadow run.  Returns
    an empty violation list (plus one info finding) when the jump
    contract holds.
    """
    subject = f"{simulator.name} x {app.name}"
    kwargs = {}
    if max_kernel_cycles is not None:
        kwargs["max_kernel_cycles"] = max_kernel_cycles
    plan_jump = simulator.plan["clocking"] == "event_jump"
    primary = simulator.simulate(app, **kwargs)
    shadow = simulator.simulate(app, engine_allow_jump=not plan_jump, **kwargs)
    if not plan_jump:
        # The plan already clocks per-cycle; the shadow run proves that
        # *enabling* jumps changes nothing (modules never jump anyway).
        primary, shadow = shadow, primary
    findings = compare_results(subject, primary, shadow)
    if not findings:
        findings.append(info(
            _CHECK, subject,
            f"jump and per-cycle runs bit-identical "
            f"({primary.total_cycles} cycles, "
            f"{primary.instructions} instructions)",
        ))
    return findings
