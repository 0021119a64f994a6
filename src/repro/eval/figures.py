"""Figure 4, 5, and 6 regeneration.

Each ``figureN`` function runs the required simulations and returns a
data object carrying the exact series the paper plots, plus a
``render()`` producing an aligned-text version of the figure.  The
benchmark suite calls these and records paper-vs-measured numbers in
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.eval.harness import EvaluationHarness, SuiteEvaluation
from repro.frontend.config import GPUConfig
from repro.frontend.presets import RTX_2080_TI, RTX_3060, RTX_3090
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.parallel import default_worker_count, simulate_apps_parallel
from repro.simulators.results import SimulationResult
from repro.simulators.swift_analytic import SwiftSimAnalytic
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import app_names, make_app
from repro.utils.stats import geomean

ACCEL = "accel-like"
BASIC = "swift-basic"
MEMORY = "swift-memory"
ANALYTIC = "swift-analytic"


# ----------------------------------------------------------------------
# Figure 4


@dataclass
class Figure4Data:
    """Per-app prediction error (bars) and speedup over the baseline
    (scatter) on the detailed-comparison GPU."""

    suite: SuiteEvaluation

    @property
    def mean_error(self) -> Dict[str, float]:
        return {
            sim: self.suite.mean_error(sim)
            for sim in (BASIC, MEMORY, ANALYTIC, ACCEL)
        }

    @property
    def geomean_speedup(self) -> Dict[str, float]:
        return {
            sim: self.suite.geomean_speedup(sim, ACCEL)
            for sim in (BASIC, MEMORY, ANALYTIC)
        }

    def render(self) -> str:
        lines = [
            f"FIGURE 4 — prediction error and speedup on {self.suite.gpu_name} "
            f"(scale={self.suite.scale})",
            f"{'app':12s} {'err basic':>10s} {'err memory':>11s} "
            f"{'err analytic':>13s} {'err accel':>10s} "
            f"{'spd basic':>10s} {'spd memory':>11s} {'spd analytic':>13s}",
        ]
        for row in self.suite.rows:
            lines.append(
                f"{row.app_name:12s} {row.error_pct(BASIC):9.1f}% "
                f"{row.error_pct(MEMORY):10.1f}% "
                f"{row.error_pct(ANALYTIC):12.1f}% {row.error_pct(ACCEL):9.1f}% "
                f"{row.speedup(BASIC, ACCEL):9.1f}x {row.speedup(MEMORY, ACCEL):10.1f}x "
                f"{row.speedup(ANALYTIC, ACCEL):12.1f}x"
            )
        means = self.mean_error
        speedups = self.geomean_speedup
        lines.append(
            f"{'MEAN/GEOMEAN':12s} {means[BASIC]:9.1f}% {means[MEMORY]:10.1f}% "
            f"{means[ANALYTIC]:12.1f}% {means[ACCEL]:9.1f}% "
            f"{speedups[BASIC]:9.1f}x {speedups[MEMORY]:10.1f}x "
            f"{speedups[ANALYTIC]:12.1f}x"
        )
        return "\n".join(lines)

    def render_chart(self) -> str:
        """Bar-and-scatter view mirroring the paper's Figure 4 layout."""
        from repro.eval.ascii_chart import grouped_bar_chart, log_scatter

        errors = {
            row.app_name: {
                "basic": row.error_pct(BASIC),
                "memory": row.error_pct(MEMORY),
                "analytic": row.error_pct(ANALYTIC),
                "accel": row.error_pct(ACCEL),
            }
            for row in self.suite.rows
        }
        speedups = {
            row.app_name: row.speedup(MEMORY, ACCEL) for row in self.suite.rows
        }
        return (
            grouped_bar_chart(
                errors,
                title="prediction error (%)",
                unit="%",
                series_order=["basic", "memory", "analytic", "accel"],
            )
            + "\n\n"
            + log_scatter(speedups, title="swift-memory speedup over baseline")
        )


def figure4(
    config: Optional[GPUConfig] = None,
    scale: str = "small",
    apps: Optional[Sequence[str]] = None,
) -> Figure4Data:
    """Reproduce Figure 4: error bars + speedup scatter on the 2080 Ti."""
    if config is None:
        config = RTX_2080_TI
    harness = EvaluationHarness(config, scale=scale, apps=apps)
    suite = harness.evaluate(
        {
            ACCEL: AccelSimLike(config),
            BASIC: SwiftSimBasic(config),
            MEMORY: SwiftSimMemory(config),
            ANALYTIC: SwiftSimAnalytic(config),
        }
    )
    return Figure4Data(suite=suite)


# ----------------------------------------------------------------------
# Figure 5


@dataclass
class Figure5Data:
    """Speedup contribution analysis (paper §IV-B2).

    ``basic_single`` / ``memory_single`` are geomean single-thread
    speedups over the baseline; ``memory_over_basic`` is the extra factor
    from the analytical memory model; ``parallel_gain_*`` is the
    throughput gain of the multiprocess driver; ``*_total`` compose them.
    """

    workers: int
    basic_single: float
    memory_single: float
    memory_over_basic: float
    parallel_gain_basic: float
    parallel_gain_memory: float

    @property
    def basic_total(self) -> float:
        return self.basic_single * self.parallel_gain_basic

    @property
    def memory_total(self) -> float:
        return self.memory_single * self.parallel_gain_memory

    def render(self) -> str:
        return "\n".join(
            [
                f"FIGURE 5 — speedup contribution analysis ({self.workers} workers)",
                f"Swift-Sim-Basic  single-thread over baseline : {self.basic_single:6.1f}x",
                f"Swift-Sim-Memory extra over Basic             : {self.memory_over_basic:6.1f}x",
                f"Swift-Sim-Memory single-thread over baseline  : {self.memory_single:6.1f}x",
                f"Parallel gain (Basic)                         : {self.parallel_gain_basic:6.1f}x",
                f"Parallel gain (Memory)                        : {self.parallel_gain_memory:6.1f}x",
                f"Swift-Sim-Basic  total                        : {self.basic_total:6.1f}x",
                f"Swift-Sim-Memory total                        : {self.memory_total:6.1f}x",
            ]
        )


def figure5(
    config: Optional[GPUConfig] = None,
    scale: str = "small",
    apps: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Figure5Data:
    """Reproduce Figure 5: where the speedup comes from.

    Single-thread speedups are geomeans of per-app wall-clock ratios;
    parallel gain is the throughput ratio of simulating the whole app
    list with the multiprocess driver versus sequentially, both sides
    counting the swift-memory pre-pass.
    """
    if config is None:
        config = RTX_2080_TI
    if workers is None:
        workers = default_worker_count()
    names = list(apps) if apps is not None else app_names()
    traces = [make_app(name, scale=scale) for name in names]
    accel = AccelSimLike(config)
    basic = SwiftSimBasic(config)
    memory = SwiftSimMemory(config)

    def sequential_runs(simulator) -> Dict[str, SimulationResult]:
        return {
            trace.name: simulator.simulate(trace, gather_metrics=False)
            for trace in traces
        }

    accel_runs = sequential_runs(accel)
    basic_runs = sequential_runs(basic)
    memory_runs = sequential_runs(memory)

    def single(runs: Dict[str, SimulationResult]) -> float:
        return geomean(
            accel_runs[n].wall_time_seconds / runs[n].wall_time_seconds
            for n in accel_runs
        )

    basic_single = single(basic_runs)
    memory_single = single(memory_runs)

    def parallel_gain(simulator, runs: Dict[str, SimulationResult]) -> float:
        # The pooled wall includes every worker's swift-memory pre-pass,
        # so the sequential side counts it too.
        sequential = sum(
            run.wall_time_seconds + run.profile_seconds for run in runs.values()
        )
        start = time.perf_counter()
        simulate_apps_parallel(simulator, traces, workers=workers)
        return sequential / (time.perf_counter() - start)

    return Figure5Data(
        workers=workers,
        basic_single=basic_single,
        memory_single=memory_single,
        memory_over_basic=basic_single and memory_single / basic_single,
        parallel_gain_basic=parallel_gain(basic, basic_runs),
        parallel_gain_memory=parallel_gain(memory, memory_runs),
    )


# ----------------------------------------------------------------------
# Figure 6


@dataclass
class Figure6Data:
    """Swift-Sim-Basic vs baseline prediction errors across three GPUs."""

    suites: List[SuiteEvaluation] = field(default_factory=list)

    def mean_errors(self) -> Dict[str, Dict[str, float]]:
        """{gpu: {simulator: mean error}}."""
        return {
            suite.gpu_name: {
                sim: suite.mean_error(sim) for sim in (BASIC, ANALYTIC, ACCEL)
            }
            for suite in self.suites
        }

    def render(self) -> str:
        lines = ["FIGURE 6 — prediction error across GPUs"]
        for suite in self.suites:
            lines.append(
                f"  {suite.gpu_name:12s} swift-basic={suite.mean_error(BASIC):5.1f}%  "
                f"swift-analytic={suite.mean_error(ANALYTIC):5.1f}%  "
                f"accel-like={suite.mean_error(ACCEL):5.1f}%"
            )
            for row in suite.rows:
                lines.append(
                    f"    {row.app_name:12s} basic={row.error_pct(BASIC):5.1f}% "
                    f"analytic={row.error_pct(ANALYTIC):5.1f}% "
                    f"accel={row.error_pct(ACCEL):5.1f}%"
                )
        return "\n".join(lines)


def figure6(
    gpus: Optional[Sequence[GPUConfig]] = None,
    scale: str = "small",
    apps: Optional[Sequence[str]] = None,
) -> Figure6Data:
    """Reproduce Figure 6: cross-architecture validation."""
    if gpus is None:
        gpus = (RTX_2080_TI, RTX_3060, RTX_3090)
    data = Figure6Data()
    for config in gpus:
        harness = EvaluationHarness(config, scale=scale, apps=apps)
        suite = harness.evaluate(
            {
                ACCEL: AccelSimLike(config),
                BASIC: SwiftSimBasic(config),
                ANALYTIC: SwiftSimAnalytic(config),
            }
        )
        data.suites.append(suite)
    return data
