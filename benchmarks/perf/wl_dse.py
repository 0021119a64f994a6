"""``dse-analytic-cold``: the closed-form tier's design-space sweep, cold.

An item is one fresh ``worker.py sweep`` process: import ``repro``,
generate all 24 applications, precharacterize each, and resolve a seeded
1024-point grid with ``DesignSpaceSweep.run_batched`` — the cost a
command-line user pays, with no memo surviving from one repetition to
the next.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from benchlib import Ctx, median, run_passes, run_worker
from benchspec import SIM_WORKLOADS

#: Grid axes and the fixed ranges their values are drawn from.  Every
#: value is one ``apply_override`` accepts for any combination of the
#: others (L1 sizes stay whole numbers of 4-way sets, ``max_warps``
#: divides across the four sub-cores).
GRID_AXES = {
    "num_sms": range(16, 129, 2),
    "l1.size_bytes": range(16 * 1024, 257 * 1024, 16 * 1024),
    "l1.latency": range(16, 65),
    "l2.latency": range(120, 261),
    "sm.max_warps": range(16, 65, 4),
}
VALUES_PER_AXIS = 4          # 4^5 = 1024 grid points
QUICK_AXES = ("num_sms", "l1.latency")   # 16 points under --quick

#: (app, config) lanes re-derived through ``SwiftSimAnalytic.simulate``.
SAMPLED_LANES = 12
PROFILED_PACKAGES = ("tracegen", "frontend", "simulators", "eval", "python")


def make_grid(ctx: Ctx) -> Dict[str, List[int]]:
    rng = ctx.rng("grid")
    axes = QUICK_AXES if ctx.quick else tuple(GRID_AXES)
    return {
        axis: sorted(rng.sample(list(GRID_AXES[axis]), VALUES_PER_AXIS))
        for axis in axes
    }


def run(ctx: Ctx) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    from repro import SwiftSimAnalytic, get_preset, make_app
    from repro.eval.sweep import apply_override
    from repro.tracegen import app_names

    grid = make_grid(ctx)
    points = len(app_names()) * VALUES_PER_AXIS ** len(grid)
    sample = sorted(ctx.rng("lanes").sample(range(points), SAMPLED_LANES))
    args = [
        "sweep", "--scale", ctx.scale, "--grid", json.dumps(grid),
        "--sample", json.dumps(sample),
    ]
    digests = set()

    def one_pass(index: int) -> Dict:
        try:
            report, wall = run_worker(args)
        except Exception as exc:  # a sweep process that dies is a failed operation
            ctx.check(False, f"sweep process failed: {exc}")
            return {}
        ctx.spins.extend(report["spins"])
        ctx.check(report["points"] == points,
                  f"sweep returned {report['points']} points, expected {points}")
        digests.add(report["digest"])
        report["wall"] = wall
        return report

    passes = [p for p in run_passes(ctx, one_pass) if p]
    if not passes:
        raise RuntimeError("no sweep process completed: " + "; ".join(ctx.failures))
    ctx.check(len(digests) == 1, "sweep results differ between repetitions")
    # The items of a pass are the phases the worker timed plus the rest of
    # the process (interpreter start and exit), each at its median across
    # passes, so that a slow burst in one phase of one process drops out.
    phases = [phase_seconds(p) for p in passes]
    wall = sum(median([p[name] for p in phases]) for name in phases[0])
    metrics = {
        "pass_s": wall,
        "sweep_points_per_s": points / wall,
        "setup_s": median([p["import_s"] for p in passes]),
    }

    # A seeded sample of lanes must equal the one-configuration simulator.
    base = get_preset("rtx2080ti")
    apps = {}
    for lane in passes[-1]["sample"]:
        gpu = base
        for path, value in lane["overrides"].items():
            gpu = apply_override(gpu, path, value)
        name = lane["app"]
        if name not in apps:
            apps[name] = make_app(name, scale=ctx.scale)
        cycles = SwiftSimAnalytic(gpu).simulate(apps[name]).total_cycles
        ctx.check(cycles == lane["cycles"],
                  f"{name} {lane['overrides']}: run_batched lane {lane['cycles']} "
                  f"!= simulate {cycles}")

    layers: Dict[str, float] = {}
    if ctx.trace:
        layers = trace_layers(ctx, args, digests, wall, base)
    samples = {name: len(passes) for name in metrics}
    return metrics, layers, samples


def phase_seconds(report: Dict) -> Dict[str, float]:
    """Seconds per phase of one sweep process, ``other`` being what neither
    the worker's own spans nor its calibration loops cover."""
    seconds: Dict[str, float] = {}
    for name, start, end in report["spans"]:
        seconds[name] = seconds.get(name, 0.0) + (end - start)
    seconds["other"] = report["wall"] - sum(seconds.values()) - sum(report["spins"])
    return seconds


def trace_layers(ctx: Ctx, args, digests, wall: float, base) -> Dict[str, float]:
    """One profiled sweep process plus the oracle reference."""
    from repro import SwiftSimAnalytic, make_app
    from repro.oracle import HardwareOracle
    from repro.utils.stats import mean_abs_pct_error

    layers: Dict[str, float] = {}
    with ctx.tracer.span("sweep.process") as span:
        report, traced_wall = run_worker([*args, "--profile"])
        span["counts"]["points"] = report["points"]
    ctx.tracer.adopt(span, report["spans"])
    ctx.check(report["digest"] in digests,
              "sweep results differ between the traced and untraced runs")
    layers["trace.overhead_x"] = traced_wall / wall
    report["wall"] = traced_wall
    for name, seconds in phase_seconds(report).items():
        if name != "other":
            layers[f"{name}_s"] = seconds
    layers["simulators.evaluate_batch_s"] = report["evaluate_batch_s"]
    for package in PROFILED_PACKAGES:
        seconds, calls = report["buckets"].get(package, (0.0, 0))
        layers[f"{package}.analytic.self_s"] = seconds
        layers[f"{package}.analytic.calls"] = calls

    # Accuracy at the base preset, over the apps of the two simulation
    # workloads, so the closed form is read against the same reference.
    oracle = HardwareOracle(base)
    pairs = []
    for __, names in SIM_WORKLOADS.values():
        for name in names:
            app = make_app(name, scale=ctx.scale)
            with ctx.tracer.span("oracle.measure", app=name) as span:
                reference = oracle.measure(app)
                span["counts"]["cycles"] = reference
            pairs.append((SwiftSimAnalytic(base).simulate(app).total_cycles, reference))
    layers["oracle.measure_s"] = ctx.tracer.total("oracle.measure")
    layers["analytic_err_pct"] = mean_abs_pct_error(pairs)
    return layers
