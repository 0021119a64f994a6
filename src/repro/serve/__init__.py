"""Sweep-as-a-service: a crash-safe asyncio job service over the sweep
machinery (paper §V / ROADMAP item 2; see ``docs/serving.md``).

Pieces, innermost first:

* :mod:`repro.serve.keys` — canonical JSON and the content-addressed
  job identity ``(trace_hash, config_hash, simulator)``.
* :mod:`repro.serve.store` — memoized exact results, written as
  framed records (:mod:`repro.utils.framing`: atomic rename, sha256
  framing, torn-file tolerance).  Degraded values are refused.
* :mod:`repro.serve.breaker` — per-(simulator, config-region) circuit
  breaker with half-open probes.
* :mod:`repro.serve.admission` — bounded queue driven by a measured
  per-simulator cost table; typed load-shed errors.
* :mod:`repro.serve.journal` — the service's crash recovery journal
  (same JSON-lines discipline as :class:`repro.resilience.RunJournal`).
* :mod:`repro.serve.service` — the asyncio unix-socket server tying it
  together: in-flight dedupe, per-job deadlines, the degradation
  ladder down to :class:`~repro.simulators.swift_analytic.SwiftSimAnalytic`,
  and graceful drain.
* :mod:`repro.serve.client` — a synchronous client plus grid helpers
  for replaying Fig. 4-scale sweeps against a server.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.admission": ("AdmissionController", "CostModel"),
    "repro.serve.breaker": ("BreakerBoard", "CircuitBreaker"),
    "repro.serve.client": ("SweepClient", "build_grid", "replay_grid"),
    "repro.serve.jobs": ("JobRequest", "response_error", "response_ok"),
    "repro.serve.journal": ("ServeJournal",),
    "repro.serve.keys": (
        "canonical_json",
        "config_hash",
        "job_key",
        "trace_hash",
        "workload_hash",
    ),
    "repro.serve.service": ("SweepService",),
    "repro.serve.store": ("ResultStore",),
})

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "CostModel",
    "JobRequest",
    "ResultStore",
    "ServeJournal",
    "SweepClient",
    "SweepService",
    "build_grid",
    "canonical_json",
    "config_hash",
    "job_key",
    "replay_grid",
    "response_error",
    "response_ok",
    "trace_hash",
    "workload_hash",
]
