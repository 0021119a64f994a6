"""Exception hierarchy for the Swift-Sim reproduction.

Every error raised deliberately by this package derives from
:class:`SwiftSimError`, so callers can catch one type at the API boundary.
"""

from __future__ import annotations


class SwiftSimError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(SwiftSimError):
    """A hardware configuration is inconsistent or cannot be parsed."""


class TraceError(SwiftSimError):
    """An application trace is malformed or violates trace invariants."""


class TraceCorruption(TraceError):
    """A trace file contains a malformed or truncated line.

    Always carries ``source`` (file path or ``<string>``) and the 1-based
    ``line`` number, so ingest failures point at the byte range to
    inspect instead of surfacing as a bare ``ValueError`` deep in the
    parser.
    """

    def __init__(self, message: str, *, source: str = "<string>",
                 line: int = 0) -> None:
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class PlanError(SwiftSimError):
    """A :class:`repro.sim.plan.ModelingPlan` cannot be assembled."""


class SimulationError(SwiftSimError):
    """The simulation engine reached an inconsistent state."""


class CycleBudgetExceeded(SimulationError):
    """:meth:`repro.sim.engine.Engine.run` hit its ``max_cycles`` backstop
    with a module still active.

    Distinct from a generic :class:`SimulationError` so sweep drivers and
    the evaluation harness can tell "the model wedged or ran past its
    budget" apart from "the model is inconsistent" — the former is a
    per-workload failure record, not necessarily a framework bug.
    """

    def __init__(self, budget: int, cycle: int, module_name: str) -> None:
        super().__init__(
            f"simulation exceeded its {budget}-cycle budget at cycle {cycle} "
            f"(module {module_name!r} still active; wedged model or "
            f"undersized budget)"
        )
        self.budget = budget
        self.cycle = cycle
        self.module_name = module_name


class SimulationStall(SimulationError):
    """The progress watchdog declared the simulation dead- or live-locked.

    Raised by :class:`repro.guard.ProgressWatchdog` when no module
    advances architectural state for a full stall window, long before the
    ``max_cycles`` backstop would fire.  Carries a per-module diagnosis
    and, when forensics are enabled, the path of the bundle written.
    """

    def __init__(self, message: str, *, cycle: int = 0,
                 diagnosis: dict = None, bundle_path: str = "") -> None:
        if bundle_path:
            message = f"{message} [forensic bundle: {bundle_path}]"
        super().__init__(message)
        self.cycle = cycle
        self.diagnosis = diagnosis or {}
        self.bundle_path = bundle_path


class InvariantViolation(SimulationError):
    """A runtime invariant guard caught a conservation property broken
    mid-run (MSHR leak, queue overflow, credit imbalance, ...)."""

    def __init__(self, message: str, *, cycle: int = 0,
                 module_name: str = "", bundle_path: str = "") -> None:
        if bundle_path:
            message = f"{message} [forensic bundle: {bundle_path}]"
        super().__init__(message)
        self.cycle = cycle
        self.module_name = module_name
        self.bundle_path = bundle_path


class FrameCorruption(SwiftSimError):
    """A framed record (:mod:`repro.utils.framing`) has the wrong magic,
    an unusable meta line, or a body that is torn or fails its digest.
    The serve result store treats it as a miss."""


class MetricsError(SwiftSimError):
    """Metrics gathering detected a corrupting condition (e.g. two
    distinct modules sharing one name inside a single module tree)."""


class CheckError(SwiftSimError):
    """A :mod:`repro.check` verification check found a violation while
    running in strict mode."""


class AnalysisError(SwiftSimError):
    """The :mod:`repro.analyze` static analyzer was misused (unparsable
    source, a path that is not Python, a noqa naming an unknown rule) —
    distinct from findings, which are reported, not raised."""


class UnknownRuleError(AnalysisError):
    """A ``# repro: noqa[RULE]`` comment names a rule the catalog does
    not know.  A typo'd suppression silently suppresses nothing, so it
    is rejected loudly instead of ignored."""


class CounterKindError(MetricsError):
    """A counter name was used with both sum semantics (``+=``) and
    max semantics (``peak``); the mixed value would be meaningless."""


class WorkloadError(SwiftSimError):
    """A synthetic workload specification is invalid."""


class ServeError(SwiftSimError):
    """The sweep service (:mod:`repro.serve`) was misused or reached an
    inconsistent state (malformed request, unusable store entry, ...)."""


class LoadShedError(ServeError):
    """Base class for typed load-shed responses: the service *chose* not
    to execute a job to protect itself.  Every subclass corresponds to a
    rung of the degradation ladder documented in ``docs/serving.md`` —
    callers that allow degraded answers get the analytic tier instead of
    this error."""

    #: Short machine-readable shed kind, stable across releases (it is
    #: part of the wire protocol).
    kind = "shed"


class QueueSaturated(LoadShedError):
    """Admission control rejected a job: the bounded queue is full, by
    depth or by the cost model's estimated pending seconds."""

    kind = "queue_saturated"

    def __init__(self, message: str, *, depth: int = 0,
                 pending_cost: float = 0.0) -> None:
        super().__init__(message)
        self.depth = depth
        self.pending_cost = pending_cost


class CircuitOpen(LoadShedError):
    """The per-(simulator, config-region) circuit breaker is open:
    recent executions failed repeatedly, so new exact runs are refused
    until a half-open probe succeeds."""

    kind = "circuit_open"

    def __init__(self, message: str, *, breaker_key: str = "") -> None:
        super().__init__(message)
        self.breaker_key = breaker_key


class DeadlineExceeded(LoadShedError):
    """A job missed its per-job deadline (queue wait plus execution,
    retries included)."""

    kind = "deadline_exceeded"


class DegradationUnavailable(ServeError):
    """The degradation ladder bottomed out: the exact tier was refused
    or failed AND the analytic fallback cannot answer (numpy missing, or
    the request opted out of degraded answers)."""


class TaskFailure(SwiftSimError):
    """A supervised task failed terminally (all retries exhausted).

    Carries the context the supervisor knew at failure time so sweep
    reports can say *which* app died, on *which* attempt, and why.
    """

    #: Short machine-readable failure kind ("crash", "timeout", ...).
    kind = "failure"
    #: Whether the supervisor may retry this failure class.
    retryable = False

    def __init__(
        self,
        message: str,
        *,
        task: str = "?",
        attempt: int = 0,
        context: str = "",
    ) -> None:
        super().__init__(message)
        self.task = task
        self.attempt = attempt
        self.context = context

    def __str__(self) -> str:
        detail = f" [{self.context}]" if self.context else ""
        return (
            f"task {self.task!r} attempt {self.attempt}: "
            f"{super().__str__()}{detail}"
        )


class WorkerCrash(TaskFailure):
    """A worker process died (non-zero exit, killed, or lost its pipe)
    before delivering a result."""

    kind = "crash"
    retryable = True


class TaskTimeout(TaskFailure):
    """A task exceeded its wall-clock budget and its worker was reaped."""

    kind = "timeout"
    retryable = True


class ResourceExhausted(TaskFailure):
    """A worker ran out of a resource (memory, file descriptors) while
    executing a task."""

    kind = "exhausted"
    retryable = True


class CorruptResult(TaskFailure):
    """A worker delivered a result that failed validation (e.g. injected
    corruption, truncated payload)."""

    kind = "corrupt"
    retryable = True
