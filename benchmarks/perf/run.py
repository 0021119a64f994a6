"""The repo's performance benchmark: one command, four workloads.

Two ways to call it::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py [--seed 2025] [--seconds S] [--runs N] [--out DIR] [--quick]

The first runs one workload once and prints, as its last line, one JSON
object ``{correct, attempted, failed, metrics}`` — the gated end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The second runs every workload that way in child processes (``--runs``
untraced runs each, then one traced), prints every metric by name with
its unit and writes ``results.json`` and ``trace.json`` to ``--out``.

Either way the exit code is non-zero when any operation or correctness
check failed.  ``README.md`` says what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import benchspec
from benchlib import (
    PACKAGE_DIR, PERF_DIR, SPIN_REFERENCE_S, SRC_DIR, Ctx, Tracer, median, peak_rss_mb,
)

SCHEMA = 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Dict:
    """Run one workload once in this process and return its report."""
    if workload in benchspec.SIM_WORKLOADS:
        import wl_sim as module
    elif workload == benchspec.DSE:
        import wl_dse as module
    else:
        import wl_serve as module

    workdir = PERF_DIR / ".work" / f"{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Ctx(
        workload=workload, seed=seed, seconds=seconds, trace=trace, quick=quick,
        workdir=workdir, tracer=Tracer(trace, f"{workload}/seed{seed}"),
    )
    began = time.perf_counter()
    try:
        ctx.spin()
        with ctx.tracer.span("workload", workload=workload):
            wall_metrics, layers, samples = module.run(ctx)
        ctx.spin()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    units = {m.name: m.unit for m in benchspec.NATIVE}
    slowdown = ctx.slowdown()
    metrics = {
        name: calibrated(value, units[name], slowdown)
        for name, value in wall_metrics.items()
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["fail_ratio"] = ctx.failed / ctx.attempted
    if trace:
        layers["host.spin_s"] = median(ctx.spins)
    return {
        "schema": SCHEMA, "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick, "wall_s": time.perf_counter() - began,
        "attempted": ctx.attempted, "failed": ctx.failed, "failures": ctx.failures,
        "metrics": metrics, "layers": layers, "samples": samples,
        "host": {"slowdown_x": slowdown, "spin_s": median(ctx.spins),
                 "spins": len(ctx.spins), "wall_metrics": wall_metrics},
        "spans": ctx.tracer.spans,
    }


def calibrated(value: float, unit: str, slowdown: float) -> float:
    """A measured timing in seconds of the reference host: times shrink
    and rates grow by the run's slowdown; ratios of two timings keep."""
    if unit in ("s", "ms"):
        return value / slowdown
    if unit.endswith("/s"):
        return value * slowdown
    return value


def traced_value(report: Dict, name: str) -> float:
    """A per-layer metric of a traced report; 0 for a layer the workload
    does not run."""
    if name in report["layers"]:
        return report["layers"][name]
    return report["metrics"].get(name, 0)


def print_report(report: Dict) -> None:
    workload = report["workload"]
    print(f"== {workload}  seed={report['seed']} trace={int(report['trace'])}"
          f"{' QUICK' if report['quick'] else ''}  ({report['wall_s']:.1f}s; host "
          f"{report['host']['slowdown_x']:.2f}x slower than the reference, timings "
          f"below are calibrated by that)")
    for metric in benchspec.native_for(workload):
        if metric.name in report["metrics"]:
            count = report["samples"].get(metric.name)
            print(f"  {metric.name:<26} {report['metrics'][metric.name]:>14.6g} "
                  f"{metric.unit:<9}" + (f" n={count}" if count else ""))
    if report["trace"]:
        for metric in benchspec.PER_LAYER:
            value = report["layers"].get(metric.name)
            if value:
                print(f"  {metric.name:<36} {value:>14.6g} {metric.unit}")
    print(f"  attempted={report['attempted']} failed={report['failed']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(report: Dict) -> str:
    """The one-line result the benchmark driver reads."""
    if report["trace"]:
        metrics = {
            m.name: {"value": traced_value(report, m.name), "unit": m.unit}
            for m in benchspec.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": report["metrics"][m.name], "unit": m.unit}
            for m in benchspec.GATED
        }
    return json.dumps({
        "correct": report["failed"] == 0, "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    })


def run_one(args) -> int:
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
        (out / name).write_text(json.dumps(report))
    print_report(report)
    print(contract_line(report))
    return 0 if report["failed"] == 0 else 1


# ----------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    out = Path(args.out or PERF_DIR / "out")
    parts = out / "parts"
    if parts.exists():
        shutil.rmtree(parts)
    parts.mkdir(parents=True)
    reports: Dict[str, List[Dict]] = {}
    broken = False
    for workload in benchspec.WORKLOADS:
        plan = [(args.seed + i, 0) for i in range(args.runs)] + [(args.seed, 1)]
        for seed, trace in plan:
            command = [
                sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(parts),
            ] + (["--quick"] if args.quick else [])
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
            part = parts / f"{workload}.trace{trace}.seed{seed}.json"
            if not part.exists():
                sys.stderr.write(completed.stderr)
                print(f"== {workload}: run exited {completed.returncode} "
                      f"without a report")
                broken = True
                continue
            reports.setdefault(workload, []).append(json.loads(part.read_text()))

    results = merge(reports, args)
    (out / "results.json").write_text(json.dumps(results, indent=1))
    spans = [s for runs in reports.values() for r in runs for s in r["spans"]]
    (out / "trace.json").write_text(json.dumps({"schema": SCHEMA, "spans": spans}))
    shutil.rmtree(parts)
    failed = sum(w["failed"] for w in results["workloads"].values())
    print(f"wrote {out / 'results.json'} and {out / 'trace.json'} "
          f"({len(spans)} spans); failed operations: {failed}"
          + ("  [QUICK: smoke numbers, not for BASELINE.json]" if args.quick else ""))
    return 1 if (failed or broken) else 0


def merge(reports: Dict[str, List[Dict]], args) -> Dict:
    """Fold the per-run reports into the ``results.json`` document."""
    workloads = {}
    for workload, runs in reports.items():
        traced = [r for r in runs if r["trace"]]
        untraced = [r for r in runs if not r["trace"]]
        end_to_end = {}
        for metric in benchspec.native_for(workload):
            # Timings come from untraced runs only; what only the traced run
            # knows (oracle error) is deterministic and comes from there.
            values = [r["metrics"][metric.name] for r in untraced
                      if metric.name in r["metrics"]]
            if not values:
                values = [r["layers"][metric.name] for r in traced
                          if metric.name in r["layers"]]
            end_to_end[metric.name] = {
                "unit": metric.unit, "better": metric.better, "bound": metric.bound,
                "exact": metric.exact, "values": values,
                "samples": (untraced or traced)[0]["samples"].get(metric.name),
            }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end["fail_ratio"]["values"] = [failed / attempted]
        per_layer = {}
        if traced:
            for metric in benchspec.PER_LAYER:
                per_layer[metric.name] = {
                    "unit": metric.unit, "better": metric.better,
                    "exact": metric.exact,
                    "value": traced_value(traced[0], metric.name),
                }
        workloads[workload] = {
            "why": benchspec.WORKLOADS[workload],
            "host_slowdown_x": [r["host"]["slowdown_x"] for r in untraced],
            "attempted": attempted,
            "failed": failed, "failures": [f for r in runs for f in r["failures"]],
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
    return {
        "schema": SCHEMA, "quick": args.quick, "seed": args.seed,
        "seconds": args.seconds, "runs": args.runs,
        "machine": {
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "host.spin_s": median(
                [r["host"]["spin_s"] for runs in reports.values() for r in runs]
            ) if reports else None,
            "spin_reference_s": SPIN_REFERENCE_S,
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(benchspec.WORKLOADS),
                        help="run this workload only and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=benchspec.RUN_SECONDS,
                        help="length of one run's timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--out", help="directory for results.json and trace.json")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny scale, two passes; flagged in every output")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").exists():
        print(f"run.py: no repro package under {SRC_DIR}; the benchmark builds "
              f"nothing and needs the checkout it measures", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin the hash seed for this process as for every child, so that no
        # run differs from another by dict and set layout.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
