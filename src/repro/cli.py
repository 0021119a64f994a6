"""Command-line interface.

Everything a downstream user needs without writing Python::

    python -m repro apps                          # list applications
    python -m repro presets                       # list GPU presets
    python -m repro tables                        # Tables I and II
    python -m repro simulate --app bfs --simulator swift-basic
    python -m repro profile  --app gemm --simulator swift-basic --scale tiny
    python -m repro compare  --app gemm --scale small
    python -m repro trace    --app nw --out nw.trace
    python -m repro figure4  --apps bfs,gemm --scale tiny
    python -m repro figure5  --apps bfs,gemm --workers 4
    python -m repro figure6  --apps bfs,gemm
    python -m repro check    --mode shadow-jump --suite rodinia
    python -m repro check    --mode resilience --apps bfs,gemm,sm --workers 2
    python -m repro eval     --apps bfs,gemm --journal sweep.journal
    python -m repro eval     --resume sweep.journal
    python -m repro guard    --app bfs --simulator accel-like \\
                             --bundle-dir bundles
    python -m repro serve    --socket serve.sock --store serve-store
    python -m repro submit   --socket serve.sock --apps bfs,gemm \\
                             --grid "num_sms=34,68"
    python -m repro lint     src

All commands return a process exit code of 0 on success; configuration
or workload errors print a one-line message and return 2.  ``check`` and
``lint`` additionally return 1 when a verification invariant is violated
(for ``lint``: any finding).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import SwiftSimError
from repro.simulators import SIMULATORS

# Nothing else of ``repro`` is imported up here: the parser is built on
# every invocation, before the command is known, so it may cost only what
# listing names costs (``SIMULATORS`` imports a simulator on lookup, and
# the two ``choices=`` tuples live in modules that import no pillar or
# harness).  Each handler imports what it runs.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swift-Sim: modular and hybrid GPU architecture simulation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("apps", help="list the synthetic benchmark applications")
    commands.add_parser("presets", help="list the GPU configuration presets")
    commands.add_parser("tables", help="print Tables I and II")

    def add_common(sub, with_simulator=True):
        sub.add_argument("--app", help="application name (see `repro apps`)")
        sub.add_argument("--trace", help="path to a trace file (instead of --app)")
        sub.add_argument(
            "--skip-corrupt-kernels", action="store_true",
            help="with --trace: drop kernels with corrupt bodies instead "
                 "of failing the whole load (degraded-but-running)",
        )
        sub.add_argument("--gpu", default="rtx2080ti", help="GPU preset name")
        sub.add_argument("--config", help="path to a GPU config JSON (instead of --gpu)")
        sub.add_argument("--scale", default="small", help="workload scale for --app")
        if with_simulator:
            sub.add_argument(
                "--simulator",
                default="swift-basic",
                choices=sorted(SIMULATORS),
                help="which assembled simulator to run",
            )

    simulate = commands.add_parser("simulate", help="simulate one application")
    add_common(simulate)
    simulate.add_argument("--metrics", action="store_true", help="print the counter report")

    profile = commands.add_parser(
        "profile",
        help="simulate under the cycle-attribution profiler "
             "(per-module time/ticks/jump efficiency)",
    )
    add_common(profile)
    profile.add_argument(
        "--json", dest="json_out",
        help="write the machine-readable profile report to this path",
    )

    compare = commands.add_parser(
        "compare", help="run all three simulators plus the hardware oracle"
    )
    add_common(compare, with_simulator=False)

    analyze_cmd = commands.add_parser(
        "analyze", help="simulate and print a bottleneck analysis"
    )
    add_common(analyze_cmd)

    trace = commands.add_parser("trace", help="generate and save a trace file")
    trace.add_argument("--app", required=True)
    trace.add_argument("--scale", default="small")
    trace.add_argument("--out", required=True, help="output trace path")

    report = commands.add_parser(
        "report", help="run every experiment and write the Markdown report"
    )
    report.add_argument("--scale", default="small")
    report.add_argument("--apps", help="comma-separated application subset")
    report.add_argument("--workers", type=int, default=None)
    report.add_argument("--out", help="output path (default: stdout)")

    for name, help_text in (
        ("figure4", "per-app error and speedup on the RTX 2080 Ti"),
        ("figure5", "speedup contribution analysis"),
        ("figure6", "cross-GPU prediction errors"),
    ):
        fig = commands.add_parser(name, help=help_text)
        fig.add_argument("--scale", default="small")
        fig.add_argument("--apps", help="comma-separated application subset")
        if name == "figure5":
            fig.add_argument("--workers", type=int, default=None)

    from repro.check.report import MODES as CHECK_MODES

    check = commands.add_parser(
        "check",
        help="run the simulation sanitizer / differential verification",
    )
    check.add_argument(
        "--mode", default="all", choices=CHECK_MODES,
        help="which verification pillar to run",
    )
    check.add_argument("--suite", default="all",
                       help="benchmark suite to cover (or 'all')")
    check.add_argument("--apps", help="comma-separated application subset")
    check.add_argument("--gpu", default="rtx2080ti", help="GPU preset name")
    check.add_argument("--config", help="path to a GPU config JSON (instead of --gpu)")
    check.add_argument("--scale", default="tiny", help="workload scale")
    check.add_argument(
        "--tolerance", type=float, default=None,
        help="relative cycle-divergence bound for hybrid simulators",
    )
    check.add_argument("--workers", type=int, default=None,
                       help="worker processes for the determinism pillar's "
                            "pool and the resilience pillar's supervised "
                            "chaos sweep")
    check.add_argument("--json", dest="json_out",
                       help="write the machine-readable report to this path")
    check.add_argument("--verbose", action="store_true",
                       help="also print info-level findings")

    from repro.resilience.policy import FAILURE_POLICIES

    evaluate = commands.add_parser(
        "eval",
        help="run the suite evaluation harness (resumable, failure-tolerant)",
    )
    evaluate.add_argument("--apps", help="comma-separated application subset")
    evaluate.add_argument("--gpu", default="rtx2080ti", help="GPU preset name")
    evaluate.add_argument("--config", help="path to a GPU config JSON (instead of --gpu)")
    evaluate.add_argument("--scale", default="tiny", help="workload scale")
    evaluate.add_argument(
        "--simulators", default="accel-like,swift-basic,swift-memory",
        help="comma-separated simulator subset (see `repro simulate --help`)",
    )
    evaluate.add_argument(
        "--failure-policy", default="degrade", choices=FAILURE_POLICIES,
        help="what a failing (app, simulator) pair does to the suite",
    )
    evaluate.add_argument(
        "--journal", help="record completed triples in this JSON-lines file",
    )
    evaluate.add_argument(
        "--resume", metavar="JOURNAL",
        help="resume an interrupted sweep from its journal "
             "(implies --journal JOURNAL)",
    )

    guard_cmd = commands.add_parser(
        "guard",
        help="simulate one application under the in-run guard: progress "
             "watchdog and invariant checks, with forensic bundles",
    )
    add_common(guard_cmd)
    guard_cmd.add_argument(
        "--no-watchdog", action="store_true",
        help="disable the progress watchdog",
    )
    guard_cmd.add_argument(
        "--no-invariants", action="store_true",
        help="disable the runtime invariant checks",
    )
    guard_cmd.add_argument(
        "--stall-window", type=int, default=20_000,
        help="cycles without forward progress before the watchdog "
             "declares a stall",
    )
    guard_cmd.add_argument(
        "--check-every", type=int, default=256,
        help="cycle cadence of watchdog/invariant checks",
    )
    guard_cmd.add_argument(
        "--bundle-dir", metavar="DIR",
        help="write forensic bundles (module dumps, trace window) here "
             "when the watchdog or an invariant fires",
    )
    guard_cmd.add_argument(
        "--inject", action="append", choices=("stall", "violation"),
        help="inject a saboteur module (repeatable; for testing "
             "detection end-to-end)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the sweep-as-a-service server on a unix socket "
             "(see docs/serving.md)",
    )
    serve.add_argument("--socket", default="serve.sock",
                       help="unix socket path to bind")
    serve.add_argument("--store", default="serve-store",
                       help="content-addressed result store directory")
    serve.add_argument("--journal", default="serve.journal",
                       help="service journal path (crash recovery)")
    serve.add_argument("--workers", type=int, default=1,
                       help="kept supervised worker processes, forked on "
                            "first need and shared by every job "
                            "(1 = in-process execution)")
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="per-attempt wall-clock budget (seconds)")
    serve.add_argument("--max-depth", type=int, default=64,
                       help="admission control: max queued jobs")
    serve.add_argument("--max-pending-seconds", type=float, default=120.0,
                       help="admission control: max estimated queued work")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that open a circuit")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds an open circuit waits before its "
                            "half-open probe")
    serve.add_argument("--die-at-job", type=int, default=0,
                       help="testing: exit(9) right after admitting the "
                            "Nth job — the deterministic SIGKILL "
                            "stand-in for crash-recovery checks")
    serve.add_argument("--chaos-seed", type=int, default=2025)
    serve.add_argument("--crash-rate", type=float, default=0.0,
                       help="chaos: probability an execution attempt "
                            "crashes (0 disables chaos)")
    serve.add_argument("--hang-rate", type=float, default=0.0)
    serve.add_argument("--corrupt-rate", type=float, default=0.0)

    submit = commands.add_parser(
        "submit",
        help="submit jobs (or a sweep grid) to a running sweep server",
    )
    submit.add_argument("--socket", default="serve.sock",
                        help="unix socket of the server")
    submit.add_argument("--apps", help="comma-separated applications")
    submit.add_argument("--gpu", default="rtx2080ti", help="GPU preset name")
    submit.add_argument("--config",
                        help="path to a GPU config JSON (instead of --gpu)")
    submit.add_argument("--scale", default="tiny", help="workload scale")
    submit.add_argument(
        "--simulator", default="swift-basic", choices=sorted(SIMULATORS),
    )
    submit.add_argument(
        "--grid", metavar="SPEC",
        help="sweep grid over config fields, e.g. "
             "'l1.size_bytes=16384,65536;num_sms=34,68'",
    )
    submit.add_argument("--deadline", type=float,
                        help="per-job deadline in seconds")
    submit.add_argument("--no-degraded", action="store_true",
                        help="fail with a typed error instead of "
                             "accepting a degraded (analytic) answer")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client-side socket timeout")
    submit.add_argument("--stats", action="store_true",
                        help="print server stats and exit")
    submit.add_argument("--drain", action="store_true",
                        help="drain and shut down the server")

    lint = commands.add_parser(
        "lint",
        help="run the framework-contract static analyzer over source trees",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument("--json", dest="json_out",
                      help="write the machine-readable report to this path")
    return parser


def _resolve_gpu(args):
    if getattr(args, "config", None):
        from repro.frontend.config_io import load_gpu_config

        return load_gpu_config(args.config)
    from repro.frontend.presets import get_preset

    return get_preset(args.gpu)


def _resolve_app(args):
    if getattr(args, "trace", None):
        from repro.frontend.trace_io import load_trace

        return load_trace(
            args.trace,
            skip_corrupt_kernels=getattr(args, "skip_corrupt_kernels", False),
        )
    if not getattr(args, "app", None):
        raise SwiftSimError("either --app or --trace is required")
    from repro.tracegen.suites import make_app

    return make_app(args.app, scale=args.scale)


def _apps_arg(args) -> Optional[List[str]]:
    if not getattr(args, "apps", None):
        return None
    return [name.strip() for name in args.apps.split(",") if name.strip()]


def _cmd_apps(args) -> None:
    from repro.tracegen.suites import APPLICATIONS, app_names

    print(f"{'app':12s} {'suite':10s}")
    for name in app_names():
        suite, __ = APPLICATIONS[name]
        print(f"{name:12s} {suite:10s}")


def _cmd_presets(args) -> None:
    from repro.frontend.presets import GPU_PRESETS

    for key, preset in GPU_PRESETS.items():
        print(
            f"{key:10s} {preset.name:12s} {preset.architecture:7s} "
            f"{preset.num_sms:3d} SMs, {preset.cuda_cores:5d} cores, "
            f"L2 {preset.l2.size_bytes // 1024} KiB, "
            f"{preset.memory_partitions} partitions"
        )


def _cmd_tables(args) -> None:
    from repro.eval.tables import render_table1, render_table2

    print(render_table1())
    print()
    print(render_table2())


def _cmd_simulate(args) -> None:
    gpu = _resolve_gpu(args)
    app = _resolve_app(args)
    result = SIMULATORS[args.simulator](gpu).simulate(app)
    print(f"app        : {app.name} ({app.suite}), {len(app.kernels)} kernels, "
          f"{app.num_instructions} warp instructions")
    print(f"gpu        : {gpu.name}")
    print(f"simulator  : {result.simulator_name}")
    print(f"cycles     : {result.total_cycles}")
    print(f"ipc        : {result.ipc:.3f}")
    print(f"wall time  : {result.wall_time_seconds:.3f}s "
          f"(+{result.profile_seconds:.3f}s profiling)")
    for kernel in result.kernels:
        print(f"  kernel {kernel.name:24s} {kernel.cycles:10d} cycles")
    metrics = result.metrics
    if metrics is None:
        return  # analytical simulators have no counters to report
    l1 = metrics.l1_miss_rate()
    if l1 is not None:
        print(f"l1 miss    : {100 * l1:.1f}%")
        l2 = metrics.l2_miss_rate()
        if l2 is not None:
            print(f"l2 miss    : {100 * l2:.1f}%")
    if args.metrics:
        for module in metrics.modules():
            for counter, value in sorted(metrics.per_module[module].items()):
                print(f"  {module}.{counter} = {value}")


def _cmd_profile(args) -> None:
    from repro.profile import profile_simulation

    gpu = _resolve_gpu(args)
    app = _resolve_app(args)
    simulator = SIMULATORS[args.simulator](gpu)
    __, report = profile_simulation(simulator, app)
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote JSON profile to {args.json_out}")


def _cmd_compare(args) -> None:
    from repro.oracle.hardware import HardwareOracle

    gpu = _resolve_gpu(args)
    app = _resolve_app(args)
    oracle_cycles = HardwareOracle(gpu).measure(app)
    print(f"{app.name} on {gpu.name}: hardware oracle = {oracle_cycles} cycles")
    print(f"{'simulator':14s} {'cycles':>10s} {'error':>8s} {'wall':>8s} {'speedup':>8s}")
    baseline_wall = None
    for name, simulator_cls in SIMULATORS.items():
        result = simulator_cls(gpu).simulate(app, gather_metrics=False)
        error = 100.0 * abs(result.total_cycles - oracle_cycles) / oracle_cycles
        if baseline_wall is None:
            baseline_wall = result.wall_time_seconds
        speedup = baseline_wall / result.wall_time_seconds
        print(f"{name:14s} {result.total_cycles:>10d} {error:>7.1f}% "
              f"{result.wall_time_seconds:>7.2f}s {speedup:>7.1f}x")


def _cmd_analyze(args) -> None:
    from repro.eval.bottleneck import analyze as analyze_metrics

    gpu = _resolve_gpu(args)
    app = _resolve_app(args)
    simulator = SIMULATORS[args.simulator](gpu)
    result = simulator.simulate(app)
    print(f"{app.name} on {gpu.name} via {result.simulator_name}: "
          f"{result.total_cycles} cycles, IPC {result.ipc:.3f}")
    print(analyze_metrics(result.metrics, gpu).render())


def _cmd_report(args) -> None:
    from repro.eval.report import generate_report

    text = generate_report(
        scale=args.scale, apps=_apps_arg(args), workers=args.workers
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)


def _cmd_trace(args) -> None:
    from repro.frontend.trace_io import save_trace
    from repro.tracegen.suites import make_app

    app = make_app(args.app, scale=args.scale)
    save_trace(app, args.out)
    print(f"wrote {app.num_instructions} warp instructions to {args.out}")


def _cmd_figure4(args) -> None:
    from repro.eval.figures import figure4

    data = figure4(scale=args.scale, apps=_apps_arg(args))
    print(data.render())
    print()
    print(data.render_chart())


def _cmd_figure5(args) -> None:
    from repro.eval.figures import figure5

    print(figure5(scale=args.scale, apps=_apps_arg(args), workers=args.workers).render())


def _cmd_figure6(args) -> None:
    from repro.eval.figures import figure6

    print(figure6(scale=args.scale, apps=_apps_arg(args)).render())


def _cmd_check(args) -> None:
    from repro.check import DEFAULT_TOLERANCE, run_checks

    gpu = _resolve_gpu(args)
    report = run_checks(
        gpu,
        mode=args.mode,
        apps=_apps_arg(args),
        suite=args.suite,
        scale=args.scale,
        tolerance=(
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        ),
        workers=args.workers,
    )
    print(report.render(verbose=args.verbose))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote JSON report to {args.json_out}")
    if not report.ok:
        raise _CheckFailed()


def _cmd_eval(args) -> None:
    from repro.errors import ConfigError
    from repro.eval.harness import EvaluationHarness
    from repro.eval.report import render_suite
    from repro.resilience.journal import RunJournal
    from repro.serve.keys import config_hash, workload_hash
    from repro.tracegen.suites import app_names

    gpu = _resolve_gpu(args)
    journal = None
    journal_path = args.resume or args.journal
    cfg_hash = config_hash(gpu)
    wl_hash = workload_hash(_apps_arg(args) or app_names(), args.scale)
    if args.resume:
        journal = RunJournal.load(args.resume)
        recorded_cfg = journal.header.get("config_hash", "")
        recorded_wl = journal.header.get("workload_hash", "")
        if recorded_cfg and recorded_cfg != cfg_hash:
            raise ConfigError(
                f"journal {args.resume} was written for config "
                f"{recorded_cfg[:12]}... but this invocation resolves to "
                f"{cfg_hash[:12]}...; refusing to mix results from "
                f"different configurations (rerun without --resume, or "
                f"pass the original --gpu/--config)"
            )
        # Journal entries key on the app *name*, so a scale change would
        # silently reuse results computed from different traces — refuse.
        # A changed app selection is safe (unmatched triples simply
        # re-run), so only note it.
        recorded_scale = journal.header.get("scale", "")
        if recorded_scale and recorded_scale != args.scale:
            raise ConfigError(
                f"journal {args.resume} was written at scale "
                f"{recorded_scale!r} but this invocation uses "
                f"{args.scale!r}; the app traces differ, so journaled "
                f"results cannot be reused (rerun without --resume, or "
                f"pass --scale {recorded_scale})"
            )
        if recorded_wl and recorded_wl != wl_hash:
            print(f"note: app selection differs from the journal's; "
                  f"journaled triples are reused, the rest run fresh")
        print(f"resuming from {args.resume}: {len(journal)} completed "
              f"triple(s) journaled")
    elif args.journal:
        journal = RunJournal.open(args.journal, gpu_name=gpu.name,
                                  scale=args.scale, config_hash=cfg_hash,
                                  workload_hash=wl_hash)
    sim_names = [name.strip() for name in args.simulators.split(",")
                 if name.strip()]
    unknown = [name for name in sim_names if name not in SIMULATORS]
    if unknown:
        raise SwiftSimError(
            f"unknown simulator(s) {unknown}; known: {sorted(SIMULATORS)}"
        )
    simulators = {name: SIMULATORS[name](gpu) for name in sim_names}
    harness = EvaluationHarness(gpu, scale=args.scale, apps=_apps_arg(args))
    try:
        suite = harness.evaluate(
            simulators,
            failure_policy=args.failure_policy,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    baseline = "accel-like" if "accel-like" in sim_names else None
    print(render_suite(suite, baseline=baseline))
    if journal_path:
        print(f"journal: {journal_path} "
              f"({len(journal)} completed triple(s))")


def _cmd_guard(args) -> None:
    from repro.guard import GuardConfig, SimulationGuard

    gpu = _resolve_gpu(args)
    app = _resolve_app(args)
    simulator = SIMULATORS[args.simulator](gpu)
    config = GuardConfig(
        watchdog=not args.no_watchdog,
        invariants=not args.no_invariants,
        stall_window=args.stall_window,
        check_every=args.check_every,
        bundle_dir=args.bundle_dir or "",
        inject=tuple(args.inject or ()),
    )
    guard = SimulationGuard(
        config,
        app_name=app.name,
        simulator_name=simulator.name,
        gpu_config=gpu,
    )
    result = simulator.simulate(app, guard=guard)
    print(f"app        : {app.name} ({app.suite}), {len(app.kernels)} kernels")
    print(f"gpu        : {gpu.name}")
    print(f"simulator  : {result.simulator_name}")
    print(f"cycles     : {result.total_cycles}")
    print(f"wall time  : {result.wall_time_seconds:.3f}s")
    if guard.bundles:
        for bundle in guard.bundles:
            print(f"bundle     : {bundle}")


def _cmd_lint(args) -> None:
    from pathlib import Path

    from repro.analyze import lint_paths

    report = lint_paths([Path(p) for p in args.paths])
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote JSON report to {args.json_out}")
    if not report.ok:
        raise _CheckFailed()


class _CheckFailed(Exception):
    """Signals a completed check run that found violations (exit code 1)."""


def _cmd_serve(args) -> None:
    import asyncio
    import os

    from repro.resilience.chaos import ChaosPlan
    from repro.resilience.policy import RetryPolicy
    from repro.serve import (
        AdmissionController,
        BreakerBoard,
        ResultStore,
        ServeJournal,
        SweepService,
    )

    store = ResultStore(args.store)
    if os.path.exists(args.journal):
        journal = ServeJournal.load(args.journal)
    else:
        journal = ServeJournal.create(args.journal, socket_path=args.socket)
    chaos = None
    if args.crash_rate > 0 or args.hang_rate > 0 or args.corrupt_rate > 0:
        chaos = ChaosPlan(
            seed=args.chaos_seed,
            crash_rate=args.crash_rate,
            hang_rate=args.hang_rate,
            corrupt_rate=args.corrupt_rate,
        )
        print(f"chaos armed: crash={args.crash_rate} hang={args.hang_rate} "
              f"corrupt={args.corrupt_rate} seed={args.chaos_seed}")
    service = SweepService(
        store,
        journal,
        policy=RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay=0.01,
            timeout_seconds=args.timeout,
        ),
        chaos=chaos,
        admission=AdmissionController(
            max_depth=args.max_depth,
            max_pending_seconds=args.max_pending_seconds,
        ),
        breakers=BreakerBoard(
            threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown,
        ),
        supervisor_workers=args.workers,
        die_at_job=args.die_at_job,
    )
    print(f"serving on {args.socket} (store {args.store}, "
          f"journal {args.journal}, {len(store)} cached entr(y/ies))",
          flush=True)
    try:
        asyncio.run(service.serve(args.socket))
    except KeyboardInterrupt:
        pass
    finally:
        journal.close()
    print(f"server stopped ({service.stats.to_dict()})")


def _cmd_submit(args) -> None:
    from repro.serve import SweepClient, build_grid, replay_grid
    from repro.serve.client import parse_grid_spec

    with SweepClient(args.socket, timeout=args.timeout) as client:
        if args.stats:
            stats = client.stats()
            print(f"stats: {stats.get('stats')}")
            print(f"breakers: {stats.get('breakers')}")
            print(f"queue: {stats.get('queue')}")
            print(f"store entries: {stats.get('store_entries')}")
            return
        if args.drain:
            response = client.drain()
            print(f"drained (settled {response.get('settled')} job(s))")
            return
        apps = _apps_arg(args)
        if not apps:
            raise SwiftSimError("submit needs --apps (or --stats/--drain)")
        base = _resolve_gpu(args)
        grid = parse_grid_spec(args.grid) if args.grid else {}
        requests = build_grid(
            base, grid, apps, args.scale, args.simulator,
            allow_degraded=not args.no_degraded,
        )
        if args.deadline:
            for request in requests:
                request["deadline_seconds"] = args.deadline
        summary = replay_grid(client, requests)
        for request, response in zip(requests, summary["responses"]):
            if response.get("status") != "ok":
                print(f"  ERROR {request['app']:12s} "
                      f"[{response.get('kind')}] {response.get('message')}")
                continue
            tag = ("cached" if response.get("cached") else
                   f"degraded ±{response.get('error_bound_pct')}%"
                   if response.get("degraded") else "exact")
            cycles = response["result"]["total_cycles"]
            print(f"  ok    {request['app']:12s} {cycles:>12,d} cycles "
                  f"[{tag}]")
        print(f"submitted {summary['total']}: {summary['hits']} cache "
              f"hit(s), {summary['degraded']} degraded, "
              f"{summary['errors']} error(s), "
              f"hit_ratio={summary['hit_ratio']:.2f}")


_COMMANDS = {
    "apps": _cmd_apps,
    "presets": _cmd_presets,
    "tables": _cmd_tables,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "check": _cmd_check,
    "eval": _cmd_eval,
    "guard": _cmd_guard,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except _CheckFailed:
        return 1
    except SwiftSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
