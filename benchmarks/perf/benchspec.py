"""What the perf benchmark measures: workloads, metrics, units, bounds.

Three tables, all data:

* ``GATED`` — the end-to-end metrics every workload reports and the
  driver gates (``BENCHMARK.json`` ``end_to_end``).  The driver's schema
  has one metric list for all workloads, so only measurements that exist
  everywhere can live here.
* ``NATIVE`` — the end-to-end metrics of the issue that belong to some
  workloads only (per-tier throughput, oracle error, serve latency).
  ``run.py`` prints them, ``results.json`` carries them, ``compare.py``
  applies their bounds, and a traced run reports them beside the layers.
* ``PER_LAYER`` — what a traced run reports (``BENCHMARK.json``
  ``per_layer``): every layer metric plus the ``NATIVE`` ones that are
  not already gated.  A workload reports 0 for a layer it does not run:
  ``memory.accel.calls`` on ``hybrid-membound`` is 0 because the accel
  tier made no calls there.

``README.md`` explains the choices; ``test_harness.py`` holds
``BENCHMARK.json`` to these tables.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

HYBRID = "hybrid-membound"
COMPUTE = "cycle-accurate-compute"
DSE = "dse-analytic-cold"
SERVE = "serve-roundtrip"

WORKLOADS: Dict[str, str] = {
    HYBRID: (
        "swift-basic and swift-memory on memory-bound apps: memory/ is ~60% of the "
        "profile, on the timed cache path (basic) and the functional one (memory)"
    ),
    COMPUTE: (
        "accel-like and swift-basic on compute-bound apps: per-cycle engine and core "
        "ticks dominate; memory.cache is 4-15% of the profile against 33-43% on hybrid"
    ),
    DSE: (
        "fresh process per 24-app x 1024-config analytic sweep: tracegen, "
        "precharacterize and numpy evaluate_batch only; no engine, core or memory"
    ),
    SERVE: (
        "real serve subprocess on a unix socket, cold / cache-hit / degraded "
        "requests with tiny simulations: serve/ and resilience/ do the work"
    ),
}

#: Length of one run's timed region (``BENCHMARK.json`` ``run_seconds``).
#: The driver makes 92 runs inside 3420 s, so a run has ~37 s for set-up,
#: warm-up and this; README.md has the noise measurements behind it.
RUN_SECONDS = 28

TIERS: Tuple[str, ...] = ("accel", "basic", "memory")

#: Which tiers a simulation workload interleaves, on which apps.
SIM_WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    HYBRID: (("basic", "memory"), ("bfs", "adi", "pagerank", "atax")),
    COMPUTE: (("accel", "basic"), ("gemm", "2mm", "lstm", "sm")),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the reference median; ``None`` for
    #: per-layer metrics, which are not gated.
    bound: Optional[float] = None
    #: Workloads the metric is defined on; empty means all of them.
    workloads: Tuple[str, ...] = ()
    #: Deterministic: two runs of one commit must agree to the last digit.
    exact: bool = False


#: Allowed worsening of a timing.  The issue asked for 10 %, from runs of
#: 40-55 s; the driver's budget allows 28 s, and this 2-vCPU guest runs the
#: same code up to 1.8x slower for seconds to minutes at a time.  With the
#: host calibration of benchlib.host_spin, ten runs still spread 4-14 %
#: (README.md, "Run length"), so the bound is as large as the driver takes
#: while leaving ``setup_s`` the largest one, which its rules ask for.
TIMING_BOUND = 0.24

GATED: List[Metric] = [
    # The benchmark's set-up time, so that work moved into set-up shows.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    # One pass over the workload's items, each item at its median over the
    # repetitions: the sum a user waits for, steadier than any single pass.
    Metric("pass_s", "s", "lower", TIMING_BOUND),
]

NATIVE: List[Metric] = GATED + [
    Metric("fail_ratio", "ratio", "lower", 0.0, exact=True),
    Metric("accel_kinst_per_s", "kinst/s", "higher", TIMING_BOUND, (COMPUTE,)),
    Metric("basic_kinst_per_s", "kinst/s", "higher", TIMING_BOUND, (HYBRID, COMPUTE)),
    Metric("memory_kinst_per_s", "kinst/s", "higher", TIMING_BOUND, (HYBRID,)),
    Metric("speedup_basic_vs_accel", "ratio", "higher", TIMING_BOUND, (COMPUTE,)),
    Metric("accel_err_pct", "%", "lower", 0.01, (COMPUTE,), exact=True),
    Metric("basic_err_pct", "%", "lower", 0.01, (HYBRID, COMPUTE), exact=True),
    Metric("memory_err_pct", "%", "lower", 0.01, (HYBRID,), exact=True),
    Metric("analytic_err_pct", "%", "lower", 0.01, (DSE,), exact=True),
    Metric("sweep_points_per_s", "points/s", "higher", TIMING_BOUND, (DSE,)),
    Metric("cold_p50_ms", "ms", "lower", TIMING_BOUND, (SERVE,)),
    Metric("hit_p50_ms", "ms", "lower", TIMING_BOUND, (SERVE,)),
    Metric("degraded_p50_ms", "ms", "lower", TIMING_BOUND, (SERVE,)),
]


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, None, (), exact)


def _profiled(prefix: str) -> List[Metric]:
    return [_layer(f"{prefix}.self_s", "s"), _layer(f"{prefix}.calls", "count", exact=True)]


def _per_layer() -> List[Metric]:
    gated = {m.name for m in GATED}
    layers = [
        m._replace(bound=None, workloads=())
        for m in NATIVE if m.name not in gated and m.name != "fail_ratio"
    ]
    for tier in TIERS:
        for package in ("sim", "core", "memory", "simulators", "python"):
            layers += _profiled(f"{package}.{tier}")
        for module in ("sim.engine", "core.subcore", "memory.cache"):
            layers += _profiled(f"{module}.{tier}")
        layers += [
            _layer(f"sim.{tier}.dispatches", "count", exact=True),
            _layer(f"sim.{tier}.jump_eff", "ratio", "higher", exact=True),
            _layer(f"sim.{tier}.cycles", "cycles", exact=True),
            _layer(f"core.{tier}.instructions_committed", "count", exact=True),
        ]
    for tier in ("accel", "basic"):  # swift-memory has no cache/NoC/DRAM modules
        layers += [
            _layer(f"memory.{tier}.sector_accesses", "count", exact=True),
            _layer(f"memory.{tier}.sector_hit_ratio", "ratio", "higher", exact=True),
            _layer(f"memory.{tier}.dram_reads", "count", exact=True),
            _layer(f"memory.{tier}.noc_flits", "count", exact=True),
        ]
    layers.append(_layer("memory.profile_s", "s"))
    layers += [
        _layer("repro.import_s", "s"),
        _layer("tracegen.make_app_s", "s"),
        _layer("frontend.save_trace_s", "s"),
        _layer("frontend.load_trace_s", "s"),
        _layer("frontend.precharacterize_s", "s"),
        _layer("simulators.evaluate_batch_s", "s"),
        _layer("eval.run_batched_s", "s"),
    ]
    for package in ("tracegen", "frontend", "simulators", "eval", "python"):
        layers += _profiled(f"{package}.analytic")
    layers += [
        _layer("oracle.measure_s", "s"),
        _layer("serve.server_start_s", "s"),
        _layer("serve.rtt_ping_ms", "ms"),
        _layer("serve.response_bytes", "bytes"),
        _layer("serve.keys.trace_hash_s", "s"),
        _layer("serve.keys.config_hash_s", "s"),
        _layer("serve.store.get_s", "s"),
        _layer("serve.store.put_s", "s"),
        _layer("serve.journal.record_s", "s"),
        _layer("resilience.supervisor.run_noop_s", "s"),
        _layer("serve.worker.execute_job_s", "s"),
        _layer("serve.cold_p90_ms", "ms"),
        _layer("serve.hit_p99_ms", "ms"),
        _layer("serve.degraded_p90_ms", "ms"),
        # Per pass of the workload, so that the counts do not depend on how
        # many passes fitted into the run.
        _layer("serve.stats.executed", "count", "higher", exact=True),
        _layer("serve.stats.hits", "count", "higher", exact=True),
        _layer("serve.stats.degraded", "count", exact=True),
        _layer("serve.stats.failed", "count", exact=True),
        _layer("host.spin_s", "s"),
        _layer("trace.overhead_x", "ratio"),
    ]
    return layers


PER_LAYER: List[Metric] = _per_layer()


def native_for(workload: str) -> List[Metric]:
    """The end-to-end metrics defined on ``workload``."""
    return [m for m in NATIVE if not m.workloads or workload in m.workloads]


def benchmark_json() -> Dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
