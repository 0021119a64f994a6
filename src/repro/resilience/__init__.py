"""``repro.resilience`` — fault-tolerant sweep execution.

The paper's bulk-evaluation workflow (~20 apps x 3 GPUs x 3 simulators,
§IV-B2) runs long enough that worker crashes, hangs, and OOMs are
expected events, not exceptions.  This package makes the execution layer
survive them:

* :class:`~repro.resilience.supervisor.Supervisor` — supervised
  per-task workers with timeouts, reaping, and retry/backoff
  (:class:`~repro.resilience.policy.RetryPolicy`);
* :class:`~repro.resilience.journal.RunJournal` — durable JSON-lines
  checkpoint of completed (app, gpu, simulator) triples so interrupted
  sweeps resume bit-identically;
* :class:`~repro.resilience.chaos.ChaosPlan` — seeded, deterministic
  fault injection proving the above (``repro check --mode resilience``).

See ``docs/resilience.md`` for the methodology.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.resilience.chaos": (
        "CRASH_EXIT_CODE",
        "ChaosPlan",
        "CorruptedResult",
        "NO_CHAOS",
    ),
    "repro.resilience.journal": (
        "RunJournal",
        "result_from_dict",
        "result_to_dict",
    ),
    "repro.resilience.policy": ("NO_RETRY", "RetryPolicy"),
    "repro.resilience.supervisor": (
        "AttemptRecord",
        "Supervisor",
        "Task",
        "TaskOutcome",
        "classify_failure",
        "raise_first_failure",
    ),
})

__all__ = [
    "AttemptRecord",
    "CRASH_EXIT_CODE",
    "ChaosPlan",
    "CorruptedResult",
    "NO_CHAOS",
    "NO_RETRY",
    "RetryPolicy",
    "RunJournal",
    "Supervisor",
    "Task",
    "TaskOutcome",
    "classify_failure",
    "raise_first_failure",
    "result_from_dict",
    "result_to_dict",
]
