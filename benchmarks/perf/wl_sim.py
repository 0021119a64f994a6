"""The two simulation workloads: ``hybrid-membound`` and
``cycle-accurate-compute``.

Both interleave two simulator tiers over four applications; an item is
one ``simulate(app, gather_metrics=False)`` call, timed by the harness
clock around it.  Traces come the paper's way — generated, saved and
loaded back from disk — in fresh set-up child processes whose wall time
is ``setup_s``.
"""

from __future__ import annotations

import cProfile
import time
from collections import Counter
from typing import Dict, List, Tuple

from benchlib import Ctx, median, profile_buckets, run_passes, run_worker
from benchspec import SIM_WORKLOADS

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_CHILDREN = 3

#: Modules that get a per-layer bucket of their own beside their package.
PROFILED_MODULES = ("sim.engine", "core.subcore", "memory.cache")
PROFILED_PACKAGES = ("sim", "core", "memory", "simulators")

Item = Tuple[str, str]  # (tier, app name)


def set_up(ctx: Ctx, apps: Tuple[str, ...]) -> Tuple[float, Dict]:
    """Run the set-up children; return their median wall and the traces
    the last one left on disk, loaded into this process."""
    from repro import load_trace

    trace_dir = ctx.workdir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    walls = []
    for __ in range(1 if (ctx.quick or ctx.trace) else SETUP_CHILDREN):
        with ctx.tracer.span("setup.child") as span:
            report, wall = run_worker([
                "setup", "--scale", ctx.scale, "--apps", ",".join(apps),
                "--dir", str(trace_dir),
            ])
        ctx.tracer.adopt(span, report["spans"])
        ctx.spins.extend(report["spins"])
        walls.append(wall - sum(report["spins"]))
        for name, same in report["hashes_match"].items():
            ctx.check(same, f"{name}: trace_hash(load_trace) != trace_hash(make_app)")
    loaded = {}
    for name in apps:
        with ctx.tracer.span("frontend.load_trace", app=name):
            loaded[name] = load_trace(trace_dir / f"{name}.trace")
    return median(walls), loaded


class SimRun:
    """One run of a simulation workload; see :func:`run`."""

    def __init__(self, ctx: Ctx) -> None:
        from repro import AccelSimLike, SwiftSimBasic, SwiftSimMemory, get_preset

        self.ctx = ctx
        self.tiers, self.app_names = SIM_WORKLOADS[ctx.workload]
        self.gpu = get_preset("rtx2080ti")
        self.classes = {
            "accel": AccelSimLike, "basic": SwiftSimBasic, "memory": SwiftSimMemory,
        }
        self.items: List[Item] = [
            (tier, name) for name in self.app_names for tier in self.tiers
        ]
        #: (tier, app) -> cycles of the first simulation; every later one,
        #: traced or not, must reproduce it.
        self.cycles: Dict[Item, int] = {}
        self.apps: Dict = {}

    def app_for(self, tier: str, name: str):
        """The trace to hand to ``tier``.

        swift-memory memoizes its hit-rate profile per ``ApplicationTrace``
        object; a fresh wrapper over the same kernels makes every
        repetition pay the profile pass, as a user's first run does.
        """
        from repro import ApplicationTrace

        app = self.apps[name]
        if tier == "memory":
            return ApplicationTrace(app.name, app.kernels, suite=app.suite)
        return app

    def simulate(self, item: Item, profiled: bool = False):
        """One timed, checked simulation: (result, profile report, wall).

        ``profiled`` runs it under ``profile_simulation`` with counters on
        instead of the plain ``simulate(app, gather_metrics=False)``.  The
        result is ``None`` when the simulation raised.
        """
        from repro.profile import profile_simulation

        tier, name = item
        simulator = self.classes[tier](self.gpu)
        app = self.app_for(tier, name)
        report = None
        began = time.perf_counter()
        try:
            if profiled:
                result, report = profile_simulation(simulator, app, gather_metrics=True)
            else:
                result = simulator.simulate(app, gather_metrics=False)
        except Exception as exc:  # a simulation that raises is a failed operation
            self.ctx.check(False, f"{tier}/{name} raised {type(exc).__name__}: {exc}")
            return None, None, time.perf_counter() - began
        wall = time.perf_counter() - began
        expected = self.cycles.setdefault(item, result.total_cycles)
        self.ctx.check(
            result.total_cycles == expected,
            f"{tier}/{name}: {result.total_cycles} cycles, first run had {expected}",
        )
        if tier == "memory":
            self.ctx.check(
                result.profile_seconds > 0.05 * wall,
                f"memory/{name}: profile pass took {result.profile_seconds:.2g}s "
                f"of {wall:.2g}s — the hit-rate memo answered",
            )
        return result, report, wall

    # ------------------------------------------------------------------

    def one_pass(self, index: int) -> Dict[Item, float]:
        order = list(self.items)
        self.ctx.rng("order", index).shuffle(order)
        walls = {}
        for item in order:
            __, ___, walls[item] = self.simulate(item)
            self.ctx.spin()
        return walls

    def measure(self) -> Tuple[Dict[str, float], int]:
        """Timed passes -> the workload's end-to-end numbers and how many
        passes they are medians of."""
        passes = run_passes(self.ctx, self.one_pass)
        item_median = {
            item: median([walls[item] for walls in passes]) for item in self.items
        }
        metrics = {"pass_s": sum(item_median.values())}
        for tier in self.tiers:
            instructions = sum(self.apps[n].num_instructions for n in self.app_names)
            seconds = sum(item_median[(tier, n)] for n in self.app_names)
            metrics[f"{tier}_kinst_per_s"] = instructions / seconds / 1e3
        if "accel" in self.tiers:
            metrics["speedup_basic_vs_accel"] = (
                metrics["basic_kinst_per_s"] / metrics["accel_kinst_per_s"]
            )
        return metrics, len(passes)

    def profile_pass(self, pass_seconds: float) -> Dict[str, float]:
        """One pass under ``cProfile``: host time and calls per source
        module, one profile per tier."""
        ctx = self.ctx
        profiles = {tier: cProfile.Profile() for tier in self.tiers}
        traced_seconds = 0.0
        profile_seconds = 0.0
        for item in self.items:
            tier, name = item
            with ctx.tracer.span("simulate", tier=tier, app=name) as span:
                profiles[tier].enable()
                try:
                    result, __, wall = self.simulate(item)
                finally:
                    profiles[tier].disable()
                if result is not None:
                    span["counts"]["cycles"] = result.total_cycles
                    if tier == "memory":
                        profile_seconds += result.profile_seconds
            traced_seconds += wall
        layers = {
            "trace.overhead_x": traced_seconds / pass_seconds,
            "memory.profile_s": profile_seconds,
        }
        for tier, profile in profiles.items():
            buckets = profile_buckets(profile, PROFILED_MODULES)
            for name in PROFILED_PACKAGES + PROFILED_MODULES + ("python",):
                seconds, calls = buckets.get(name, (0.0, 0))
                layers[f"{name}.{tier}.self_s"] = seconds
                layers[f"{name}.{tier}.calls"] = calls
        return layers

    def counter_pass(self) -> Dict[str, float]:
        """One pass under ``profile_simulation`` with counters on:
        dispatches, jump efficiency and the simulated statistics."""
        totals = {tier: Counter() for tier in self.tiers}
        for item in self.items:
            tier, name = item
            with self.ctx.tracer.span("profile_simulation", tier=tier, app=name) as span:
                result, report, __ = self.simulate(item, profiled=True)
                if result is None:
                    continue
                engine = report.as_dict()["totals"]
                span["counts"].update({
                    "cycles": result.total_cycles,
                    "dispatches": engine["dispatches"],
                    "skipped": engine["skipped_cycles"],
                    "instructions_committed": result.metrics.instructions,
                    "sector_accesses": result.metrics.total("sector_accesses"),
                    "sector_hits": result.metrics.total("sector_hits"),
                    "dram_reads": result.metrics.total("reads", prefix="dram"),
                    "noc_flits": result.metrics.total("flits"),
                })
                totals[tier].update(span["counts"])
        layers = {}
        for tier, total in totals.items():
            window = total["dispatches"] + total["skipped"]
            layers[f"sim.{tier}.cycles"] = total["cycles"]
            layers[f"sim.{tier}.dispatches"] = total["dispatches"]
            layers[f"sim.{tier}.jump_eff"] = total["skipped"] / window if window else 0.0
            layers[f"core.{tier}.instructions_committed"] = total["instructions_committed"]
            if tier != "memory":
                accesses = total["sector_accesses"]
                layers[f"memory.{tier}.sector_accesses"] = accesses
                layers[f"memory.{tier}.sector_hit_ratio"] = (
                    total["sector_hits"] / accesses if accesses else 0.0
                )
                layers[f"memory.{tier}.dram_reads"] = total["dram_reads"]
                layers[f"memory.{tier}.noc_flits"] = total["noc_flits"]
        return layers

    def oracle_pass(self) -> Dict[str, float]:
        """The reference phase: oracle cycles per app, error per tier."""
        from repro.oracle import HardwareOracle
        from repro.utils.stats import mean_abs_pct_error

        tracer = self.ctx.tracer
        oracle = HardwareOracle(self.gpu)
        reference = {}
        for name in self.app_names:
            with tracer.span("oracle.measure", app=name) as span:
                reference[name] = oracle.measure(self.apps[name])
                span["counts"]["cycles"] = reference[name]
        layers = {"oracle.measure_s": tracer.total("oracle.measure")}
        for tier in self.tiers:
            layers[f"{tier}_err_pct"] = mean_abs_pct_error(
                (self.cycles[(tier, name)], reference[name]) for name in self.app_names
            )
        return layers


def run(ctx: Ctx) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Run a simulation workload; returns (end-to-end, per-layer, sample
    counts)."""
    sim = SimRun(ctx)
    setup_s, sim.apps = set_up(ctx, sim.app_names)
    metrics, passes = sim.measure()
    metrics["setup_s"] = setup_s
    layers: Dict[str, float] = {}
    if ctx.trace:
        layers = {
            **sim.profile_pass(metrics["pass_s"]), **sim.counter_pass(),
            **sim.oracle_pass(),
        }
        for name in ("repro.import", "tracegen.make_app", "frontend.save_trace",
                     "frontend.load_trace"):
            layers[f"{name}_s"] = ctx.tracer.total(name)
    samples = {name: passes for name in metrics}
    samples["setup_s"] = 1 if (ctx.quick or ctx.trace) else SETUP_CHILDREN
    return metrics, layers, samples
