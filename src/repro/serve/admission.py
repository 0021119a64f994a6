"""Admission control: a bounded queue priced by a measured cost model.

The queue is bounded two ways — by depth and by the *estimated seconds*
of work already admitted — so a burst of cheap analytic jobs and a
burst of expensive accel-like jobs both hit a wall scaled to what they
actually cost.  Estimates come from :class:`CostModel`: seconds per
dynamic warp-instruction per simulator, one table measured by the
performance benchmark (``benchmarks/perf``; see ``docs/performance.md``).

Rejection is a typed :class:`repro.errors.QueueSaturated` — the first
rung of the degradation ladder, never a hung socket.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import QueueSaturated


class CostModel:
    """Estimated execution cost (seconds) of one job.

    ``coefficients`` maps simulator name to seconds per dynamic
    warp-instruction; ``overhead_seconds`` covers per-job setup (trace
    generation, process round-trip) independent of trace size.
    """

    #: Seconds per dynamic warp-instruction.  The three engine tiers are
    #: ``1 / (1e3 * <tier>_kinst_per_s)`` from one full
    #: ``python3 benchmarks/perf/run.py`` (host time calibrated by the
    #: harness) at commit 2429f64 on
    #: Linux-6.18.44-fc-v50-x86_64-with-glibc2.36, 2 CPUs: swift-memory
    #: 69.5, swift-basic 31.1 kinst/s (on ``hybrid-membound``, the slower
    #: of its two workloads); accel-like 27.7, re-read the same way on
    #: that host once it stopped ticking SMs that hold no block.  interval
    #: and swift-analytic keep their earlier ratios to swift-basic (10x
    #: and 125x faster; docs/performance.md, docs/analytic-tier.md).
    DEFAULTS: Dict[str, float] = {
        "accel-like": 3.6e-5,
        "swift-basic": 3.2e-5,
        "swift-memory": 1.4e-5,
        "interval": 3.2e-6,
        "swift-analytic": 2.6e-7,
    }

    DEFAULT_COEFFICIENT = DEFAULTS["swift-basic"]  # unknown simulator
    OVERHEAD_SECONDS = 0.05

    def __init__(
        self,
        coefficients: Optional[Dict[str, float]] = None,
        overhead_seconds: float = OVERHEAD_SECONDS,
    ) -> None:
        self.coefficients = dict(self.DEFAULTS)
        if coefficients:
            self.coefficients.update(coefficients)
        self.overhead_seconds = overhead_seconds

    def estimate(self, simulator: str, num_instructions: int) -> float:
        """Estimated wall seconds to execute one job."""
        coefficient = self.coefficients.get(
            simulator, self.DEFAULT_COEFFICIENT
        )
        return self.overhead_seconds + coefficient * max(0, num_instructions)


class AdmissionController:
    """The bounded queue's gatekeeper.

    Callers :meth:`admit` before enqueueing (receiving the priced cost
    to hand back) and :meth:`release` when the job leaves the system —
    completed, failed, or shed downstream.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        max_depth: int = 64,
        max_pending_seconds: float = 120.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_pending_seconds <= 0:
            raise ValueError(
                f"max_pending_seconds must be positive, got "
                f"{max_pending_seconds}"
            )
        self.cost_model = cost_model or CostModel()
        self.max_depth = max_depth
        self.max_pending_seconds = max_pending_seconds
        self.depth = 0
        self.pending_seconds = 0.0
        self.shed_count = 0

    def admit(self, simulator: str, num_instructions: int) -> float:
        """Price the job and admit it, or raise :class:`QueueSaturated`.

        An otherwise-empty queue always admits one job even if that
        single job is priced over ``max_pending_seconds`` — a bound
        that can starve *all* traffic protects nothing.
        """
        cost = self.cost_model.estimate(simulator, num_instructions)
        if self.depth >= self.max_depth:
            self.shed_count += 1
            raise QueueSaturated(
                f"queue depth {self.depth} at limit {self.max_depth}",
                depth=self.depth, pending_cost=self.pending_seconds,
            )
        if self.depth > 0 and (
            self.pending_seconds + cost > self.max_pending_seconds
        ):
            self.shed_count += 1
            raise QueueSaturated(
                f"estimated pending work {self.pending_seconds + cost:.3g}s "
                f"would exceed the {self.max_pending_seconds:.3g}s budget",
                depth=self.depth, pending_cost=self.pending_seconds,
            )
        self.depth += 1
        self.pending_seconds += cost
        return cost

    def release(self, cost: float) -> None:
        self.depth = max(0, self.depth - 1)
        self.pending_seconds = max(0.0, self.pending_seconds - cost)
