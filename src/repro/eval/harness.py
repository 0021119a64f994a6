"""Suite evaluation harness.

Runs a set of applications through any number of simulators plus the
hardware oracle on one GPU, and aggregates the two quantities the
paper's evaluation reports: per-application cycle-prediction error
against "hardware", and per-application wall-clock speedup relative to a
baseline simulator (Accel-Sim in the paper, :class:`AccelSimLike` here).

Long sweeps fail partially, so the harness understands partial suites:
``failure_policy`` decides whether a failing (app, simulator) pair
aborts the run (``"raise"``), drops the app (``"skip"``), or records an
explicit gap (``"degrade"``), and a
:class:`~repro.resilience.journal.RunJournal` lets an interrupted sweep
resume from its completed (app, gpu, simulator) triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import SwiftSimError, WorkloadError
from repro.frontend.config import GPUConfig
from repro.guard import GuardConfig, SimulationGuard
from repro.oracle.hardware import HardwareOracle
from repro.resilience.journal import RunJournal
from repro.resilience.policy import FAILURE_POLICIES
from repro.simulators.base import GPUSimulator, PlanSimulator
from repro.tracegen.suites import app_names, make_app
from repro.utils.stats import geomean


@dataclass(frozen=True)
class FailureRecord:
    """One (app, simulator) pair that produced no measurement."""

    app_name: str
    simulator: str
    error_type: str
    message: str

    def render(self) -> str:
        return (
            f"{self.app_name} x {self.simulator}: "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class AppEvaluation:
    """One application's measurements on one GPU."""

    app_name: str
    suite: str
    oracle_cycles: int
    cycles: Dict[str, int] = field(default_factory=dict)
    wall_seconds: Dict[str, float] = field(default_factory=dict)

    def _lookup(self, table: Dict, simulator: str, what: str):
        try:
            return table[simulator]
        except KeyError:
            raise WorkloadError(
                f"no {what} recorded for simulator {simulator!r} on app "
                f"{self.app_name!r}; available: {sorted(table) or 'none'}"
            ) from None

    def has(self, simulator: str) -> bool:
        """Whether this row carries a measurement for ``simulator``."""
        return simulator in self.cycles and simulator in self.wall_seconds

    def error_pct(self, simulator: str) -> float:
        """Absolute cycle-prediction error (percent) vs the oracle."""
        predicted = self._lookup(self.cycles, simulator, "cycles")
        return 100.0 * abs(predicted - self.oracle_cycles) / self.oracle_cycles

    def signed_error_pct(self, simulator: str) -> float:
        predicted = self._lookup(self.cycles, simulator, "cycles")
        return 100.0 * (predicted - self.oracle_cycles) / self.oracle_cycles

    def speedup(self, simulator: str, baseline: str) -> float:
        """Wall-clock speedup of ``simulator`` over ``baseline``."""
        base = self._lookup(self.wall_seconds, baseline, "wall time")
        mine = self._lookup(self.wall_seconds, simulator, "wall time")
        if mine <= 0:
            raise SwiftSimError(f"non-positive wall time for {simulator}")
        return base / mine


@dataclass
class SuiteEvaluation:
    """All applications' measurements on one GPU.

    A *partial* suite (some (app, simulator) pairs failed under
    ``failure_policy="skip"``/``"degrade"``) lists its gaps in
    ``failures``; the aggregate metrics then cover only the rows that
    actually carry the requested simulator's measurements.
    """

    gpu_name: str
    scale: str
    rows: List[AppEvaluation] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)

    def simulators(self) -> List[str]:
        seen = set()
        for row in self.rows:
            seen.update(row.cycles)
        return sorted(seen)

    @property
    def is_partial(self) -> bool:
        return bool(self.failures)

    def rows_with(self, *simulators: str) -> List[AppEvaluation]:
        """Rows carrying measurements for every named simulator."""
        return [
            row for row in self.rows
            if all(row.has(simulator) for simulator in simulators)
        ]

    def _covered(self, *simulators: str) -> List[AppEvaluation]:
        rows = self.rows_with(*simulators)
        if not rows:
            raise WorkloadError(
                f"no row carries measurements for "
                f"{' and '.join(repr(s) for s in simulators)}; "
                f"available: {self.simulators() or 'none'}"
            )
        return rows

    def mean_error(self, simulator: str) -> float:
        """Mean absolute prediction error (the Fig. 4 / Fig. 6 bar metric)."""
        rows = self._covered(simulator)
        return sum(row.error_pct(simulator) for row in rows) / len(rows)

    def geomean_speedup(self, simulator: str, baseline: str) -> float:
        """Geometric-mean wall-clock speedup (the paper's headline metric)."""
        rows = self._covered(simulator, baseline)
        return geomean(row.speedup(simulator, baseline) for row in rows)

    def max_speedup(self, simulator: str, baseline: str) -> float:
        rows = self._covered(simulator, baseline)
        return max(row.speedup(simulator, baseline) for row in rows)


class EvaluationHarness:
    """Drives simulators + oracle over an application list."""

    def __init__(
        self,
        config: GPUConfig,
        scale: str = "small",
        apps: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config
        self.scale = scale
        self.app_list = list(apps) if apps is not None else app_names()
        self.oracle = HardwareOracle(config)

    def evaluate(
        self,
        simulators: Dict[str, GPUSimulator],
        progress: Optional[callable] = None,
        failure_policy: str = "raise",
        journal: Optional[RunJournal] = None,
        guard: Optional["GuardConfig"] = None,
    ) -> SuiteEvaluation:
        """Run every app through the oracle and all ``simulators``.

        ``failure_policy`` governs per-(app, simulator) failures:
        ``"raise"`` propagates the first one (historical behaviour),
        ``"skip"`` drops the whole app row, ``"degrade"`` keeps the row
        with an explicit gap.  Either way every failure lands in
        ``SuiteEvaluation.failures`` — including typed in-run failures
        like :class:`~repro.errors.CycleBudgetExceeded` (a truncated
        run is a gap, never a silently-wrong measurement) and
        :class:`~repro.errors.SimulationStall`.  With a ``journal``,
        completed (app, gpu, simulator) triples are served from it and
        fresh completions appended, so an interrupted sweep resumes
        where it stopped.

        ``guard`` (a :class:`~repro.guard.GuardConfig` template) arms
        the in-simulation guard per (app, simulator) pair with a
        per-pair checkpoint directory under the template's
        ``checkpoint_dir``; pairs with an intact checkpoint auto-resume
        mid-kernel.
        """
        if failure_policy not in FAILURE_POLICIES:
            raise WorkloadError(
                f"unknown failure_policy {failure_policy!r}; "
                f"known: {FAILURE_POLICIES}"
            )
        suite = SuiteEvaluation(gpu_name=self.config.name, scale=self.scale)
        for app_name in self.app_list:
            app = make_app(app_name, scale=self.scale)
            row = AppEvaluation(
                app_name=app.name,
                suite=app.suite,
                oracle_cycles=self.oracle.measure(app),
            )
            row_failures: List[FailureRecord] = []
            for sim_name, simulator in simulators.items():
                result = (
                    journal.get(app.name, self.config.name, sim_name)
                    if journal is not None else None
                )
                if result is None:
                    try:
                        result = self._run_one(
                            simulator, sim_name, app, guard
                        )
                    except SwiftSimError as exc:
                        if failure_policy == "raise":
                            raise
                        row_failures.append(FailureRecord(
                            app_name=app.name,
                            simulator=sim_name,
                            error_type=type(exc).__name__,
                            message=str(exc),
                        ))
                        continue
                    if journal is not None:
                        # Journal triples key on the harness's name for
                        # the simulator, which may differ from the
                        # plan's internal name.
                        entry = result
                        if result.simulator_name != sim_name:
                            import copy

                            entry = copy.copy(result)
                            entry.simulator_name = sim_name
                        journal.record(entry)
                row.cycles[sim_name] = result.total_cycles
                row.wall_seconds[sim_name] = result.wall_time_seconds
            suite.failures.extend(row_failures)
            if row_failures and failure_policy == "skip":
                continue
            suite.rows.append(row)
            if progress is not None:
                progress(row)
        return suite

    def _run_one(
        self,
        simulator: GPUSimulator,
        sim_name: str,
        app,
        guard: Optional["GuardConfig"],
    ):
        """One (app, simulator) measurement, guarded when asked.

        Guarding needs the :class:`~repro.simulators.base.PlanSimulator`
        kernel-loop hooks; other :class:`GPUSimulator` implementations
        (e.g. a hardware oracle wrapper) run unguarded.
        """
        if guard is None or not isinstance(simulator, PlanSimulator):
            return simulator.simulate(app, gather_metrics=False)
        per_pair = guard
        if guard.checkpoint_dir:
            per_pair = guard.with_(checkpoint_dir=str(
                Path(guard.checkpoint_dir) / f"{app.name}_{sim_name}"
            ))
        run_guard = SimulationGuard(
            per_pair,
            app_name=app.name,
            simulator_name=sim_name,
            gpu_config=self.config,
            auto_resume=bool(per_pair.checkpoint_dir),
        )
        return simulator.simulate(app, gather_metrics=False, guard=run_guard)
