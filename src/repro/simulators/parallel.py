"""Supervised multiprocess parallel simulation (paper §IV-B2).

The paper credits Swift-Sim's modular design with making parallel
simulation easy and reports a further ~5x from running simulations
concurrently (50 threads on a 2-socket server).  Applications are
independent, so the parallel driver fans application traces out to
at most ``workers`` kept, supervised worker processes — the same
throughput-level concurrency, sized to this machine, but fault-tolerant:
workers that crash, hang, or OOM are reaped and their tasks retried
under a :class:`~repro.resilience.policy.RetryPolicy` (see
:mod:`repro.resilience`).  Each task ships the simulator itself, any
tier, and one application trace to a worker, which simulates and ships
back the result without the metrics report (module trees do not cross
process boundaries).
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Optional, Sequence

from repro.errors import SimulationError
from repro.frontend.trace import ApplicationTrace
from repro.resilience.chaos import ChaosPlan
from repro.resilience.journal import RunJournal
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.resilience.supervisor import Supervisor, Task, TaskOutcome
from repro.simulators.base import GPUSimulator
from repro.simulators.results import SimulationResult


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say."""
    return max(1, min(os.cpu_count() or 1, 50))


def _simulate_one(simulator: GPUSimulator, app: ApplicationTrace) -> SimulationResult:
    # Metrics hold live module references; skip them for cross-process runs.
    return simulator.simulate(app, gather_metrics=False)


def _simulate_pickled(simulator: GPUSimulator, app_bytes: bytes) -> SimulationResult:
    """:func:`_simulate_one` on a trace :func:`validate_picklable` pickled."""
    return _simulate_one(simulator, pickle.loads(app_bytes))


def _pickled(label: str, value: object) -> bytes:
    try:
        return pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 — any pickling failure
        raise SimulationError(
            f"cannot ship {label} to worker processes: not picklable "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def validate_picklable(simulator: GPUSimulator,
                       apps: Sequence[ApplicationTrace]) -> Dict[str, bytes]:
    """Pre-flight the pool: the simulator and every trace must pickle.

    Without this, a stray live reference (an engine, an open handle)
    surfaces as an opaque ``ProcessPoolExecutor``-style error deep in
    the pool machinery; here it is a typed
    :class:`~repro.errors.SimulationError` naming the simulator or the
    trace before any worker launches.  Returns each app's pickled trace
    by name: the bytes its task ships, so no trace is pickled twice.
    """
    _pickled(f"simulator {simulator.name!r}", simulator)
    return {app.name: _pickled(f"app {app.name!r} trace", app) for app in apps}


def _result_validator(app: ApplicationTrace):
    """Domain validation for a worker-delivered result (corruption
    detection for the supervisor — see ``docs/resilience.md``)."""
    expected_kernels = len(app.kernels)
    app_name = app.name

    def validate(result: object) -> None:
        if not isinstance(result, SimulationResult):
            raise SimulationError(
                f"worker returned {type(result).__name__}, "
                f"not a SimulationResult"
            )
        if result.app_name != app_name:
            raise SimulationError(
                f"result names app {result.app_name!r}, expected {app_name!r}"
            )
        if result.total_cycles < 0:
            raise SimulationError(
                f"impossible cycle count {result.total_cycles}"
            )
        if len(result.kernels) != expected_kernels:
            raise SimulationError(
                f"result has {len(result.kernels)} kernels, "
                f"expected {expected_kernels}"
            )

    return validate


def simulate_apps_supervised(
    simulator: GPUSimulator,
    apps: Sequence[ApplicationTrace],
    workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Optional[RunJournal] = None,
) -> Dict[str, TaskOutcome]:
    """Run apps under full supervision and return per-task outcomes.

    This is the resilient entry point: failures do not raise — each
    :class:`~repro.resilience.supervisor.TaskOutcome` carries either a
    result or a typed :class:`~repro.errors.TaskFailure` with its full
    attempt history.  A retried attempt runs the app again from cycle 0.
    The call forks at most ``workers`` processes, plus one for each worker
    a crash or timeout killed, and stops them before it returns.
    Triples already present in ``journal`` are served from it without
    simulating; fresh completions are durably appended.
    """
    if workers is None:
        workers = default_worker_count()
    workers = min(workers, max(len(apps), 1))
    outcomes: Dict[str, TaskOutcome] = {}
    pending = []
    for app in apps:
        journaled = (
            journal.get(app.name, simulator.config.name, simulator.name)
            if journal is not None else None
        )
        if journaled is not None:
            outcomes[app.name] = TaskOutcome(key=app.name, result=journaled)
        else:
            pending.append(app)
    fn, shipped = _simulate_one, {app.name: app for app in pending}
    if workers > 1:
        fn, shipped = _simulate_pickled, validate_picklable(simulator, pending)
    tasks = [
        Task(
            key=app.name,
            fn=fn,
            args=(simulator, shipped[app.name]),
            validate=_result_validator(app),
        )
        for app in pending
    ]
    with Supervisor(
        policy=retry_policy,
        workers=workers,
        chaos=chaos,
        context=f"{simulator.name} on {simulator.config.name}",
    ) as supervisor:
        outcomes.update(supervisor.run(tasks))
    if journal is not None:
        for app in pending:
            outcome = outcomes[app.name]
            if outcome.ok:
                journal.record(outcome.result, attempts=outcome.num_attempts)
    return outcomes


def simulate_apps_parallel(
    simulator: GPUSimulator,
    apps: Sequence[ApplicationTrace],
    workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Optional[RunJournal] = None,
) -> Dict[str, SimulationResult]:
    """Simulate many applications concurrently with ``simulator``.

    Returns results keyed by application name.  With ``workers=1`` the
    apps run sequentially in-process (useful as the single-thread leg of
    the Figure 5 contribution analysis).  By default failures are not
    retried (the historical contract: the first worker error raises);
    pass a :class:`~repro.resilience.policy.RetryPolicy` to get
    supervised retry/timeout behaviour, and use
    :func:`simulate_apps_supervised` when per-task failure outcomes are
    wanted instead of an exception.
    """
    if retry_policy is None:
        retry_policy = NO_RETRY
    outcomes = simulate_apps_supervised(
        simulator, apps, workers=workers, retry_policy=retry_policy,
        chaos=chaos, journal=journal,
    )
    results: Dict[str, SimulationResult] = {}
    for app in apps:
        outcome = outcomes[app.name]
        if outcome.failure is not None:
            raise outcome.failure
        results[app.name] = outcome.result
    return results
