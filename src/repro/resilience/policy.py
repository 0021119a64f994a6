"""Retry policy: how often, how long, and how patiently to retry.

Backoff is exponential with bounded, *deterministic* jitter: the jitter
fraction for (task, attempt) is derived from a stable hash, so a retry
schedule is bit-reproducible run-to-run — the property every other
determinism contract in this repo (see ``docs/verification.md``) leans
on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError
from repro.utils.rng import derive_seed

#: What ``EvaluationHarness.evaluate`` does with an (app, simulator) pair
#: that still fails once its retries are spent: abort the suite, drop
#: the app, or record an explicit gap.  Kept here, not in the harness, so
#: the CLI can list them without importing a simulator.
FAILURE_POLICIES = ("raise", "skip", "degrade")


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the supervised driver's retry behaviour.

    ``max_attempts`` counts *total* attempts (1 means "never retry").
    ``timeout_seconds`` is the per-attempt wall-clock budget enforced by
    the supervisor (``None`` disables reaping, for workloads whose
    runtime is unbounded).  ``max_total_seconds`` caps the *cumulative*
    wall-clock one task may consume across attempts and backoff delays:
    a retry whose backoff would push the task past the cap is suppressed
    (the outcome records ``retry_cap_hit``), so exponential backoff can
    never blow through a sweep or per-job deadline.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    timeout_seconds: Optional[float] = None
    max_total_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("retry delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive or None")
        if self.max_total_seconds is not None and self.max_total_seconds <= 0:
            raise ConfigError("max_total_seconds must be positive or None")

    def backoff(self, task: str, attempt: int) -> float:
        """Delay (seconds) before retrying ``task`` after failed
        ``attempt`` (1-based).  Deterministic in (seed, task, attempt)."""
        raw = min(
            self.max_delay,
            self.base_delay * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        rng = random.Random(derive_seed("backoff", self.seed, task, attempt))
        return raw * (1.0 + self.jitter * rng.random())

    def schedule(self, task: str) -> list:
        """The full backoff schedule a task would see if every attempt
        failed — one delay per retry (``max_attempts - 1`` entries)."""
        return [
            self.backoff(task, attempt)
            for attempt in range(1, self.max_attempts)
        ]

    def with_timeout(self, timeout_seconds: Optional[float]) -> "RetryPolicy":
        return replace(self, timeout_seconds=timeout_seconds)

    def with_deadline(self, max_total_seconds: Optional[float]) -> "RetryPolicy":
        """Copy with the cumulative wall-clock cap tightened to
        ``max_total_seconds``.  A deadline can only shrink the budget —
        a policy's own cap is never loosened by a caller's deadline."""
        if max_total_seconds is None:
            return self
        if self.max_total_seconds is not None:
            max_total_seconds = min(self.max_total_seconds, max_total_seconds)
        return replace(self, max_total_seconds=max_total_seconds)


#: Policy matching the pre-resilience driver: one attempt, no reaping.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
