"""``serve-roundtrip``: request latency of the real sweep server.

One client, closed loop, one request in flight.  A pass starts a fresh
``python -m repro serve`` with an empty store and sends it every job once
(*cold*: Supervisor -> worker process -> ``store.put`` + journal fsync),
then the same jobs ``HIT_ROUNDS`` more times (*hit*: ``store.get``), then
sends the jobs to a second, long-lived server whose every execution
crashes (*degraded*: the failure ladder down to the analytic answer),
and drains the first server.  Simulations are ``tiny`` on purpose, so the
serve and resilience layers do the work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from benchlib import (
    Ctx, Tracer, child_env, median, percentile, relative, run_passes,
)

APPS = ("bfs", "pagerank", "atax", "gemm", "lstm", "sm")
CONFIGS = 8                    # seeded ``num_sms`` values per app
NUM_SMS = range(16, 129, 2)
HIT_ROUNDS = 40                # 48 jobs x 40 = 1920 cache hits per pass
SIMULATOR = "swift-basic"

#: The server every execution of which fails: each attempt crashes, one
#: attempt per job, and a breaker that never opens, so that every request
#: walks the whole ladder instead of being shed at the door.
DEGRADED_FLAGS = ("--crash-rate", "1.0", "--max-attempts", "1",
                  "--breaker-threshold", "1000000")

SPIN_EVERY_ROUNDS = 10         # host-calibration samples inside the hit phase
PING_SAMPLES = 200
NOOP_SAMPLES = 20


class Server:
    """A ``repro serve`` subprocess and the one client connected to it."""

    def __init__(self, ctx: Ctx, tag: str, flags=()) -> None:
        from repro.serve import SweepClient

        self.ctx = ctx
        self.tag = tag
        home = ctx.workdir / tag
        home.mkdir(parents=True)
        self.socket = relative(home / "s.sock")
        self.store = relative(home / "store")
        began = time.perf_counter()
        # Two workers make the Supervisor run each job in a worker process
        # of its own (one worker means in-process), as a deployment would.
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--store", self.store, "--journal", relative(home / "journal"),
             "--workers", "2", *flags],
            env=child_env(), stdout=subprocess.DEVNULL,
        )
        self.client = SweepClient(self.socket, timeout=120.0)
        try:
            self.client.connect(retries=6000, delay=0.005)
            self.client.ping()
        except BaseException:
            self.kill()
            raise
        self.start_seconds = time.perf_counter() - began

    def submit(self, job: Dict, tracer: Tracer, phase: str) -> Tuple[float, Dict]:
        with tracer.span("submit", phase=phase, app=job["app"]):
            began = time.perf_counter()
            response = self.client.submit(job)
            rtt = time.perf_counter() - began
        self.ctx.check(response.get("status") == "ok",
                       f"{phase} {job['app']}: {response.get('kind')} "
                       f"{response.get('message')}")
        return rtt, response

    def drain(self) -> None:
        """Drain; the server must exit 0 and remove its socket."""
        self.client.drain()
        self.client.close()
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        self.ctx.check(code == 0, f"server {self.tag} exited {code} after drain")
        self.ctx.check(not os.path.exists(self.socket),
                       f"server {self.tag} left its socket behind")
        self.kill()

    def kill(self) -> None:
        self.client.close()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def make_jobs(ctx: Ctx) -> List[Dict]:
    from repro import get_preset
    from repro.serve import build_grid

    values = ctx.rng("num_sms").sample(list(NUM_SMS), 2 if ctx.quick else CONFIGS)
    return build_grid(
        get_preset("rtx2080ti"), {"num_sms": [str(v) for v in values]},
        APPS[:2] if ctx.quick else APPS, "tiny", SIMULATOR,
    )


def _job_id(job: Dict) -> Tuple[str, int]:
    return job["app"], job["config"]["num_sms"]


class ServeRun:
    def __init__(self, ctx: Ctx, degraded: Server) -> None:
        self.ctx = ctx
        self.jobs = make_jobs(ctx)
        self.hit_rounds = 5 if ctx.quick else HIT_ROUNDS
        self.degraded = degraded

    def one_pass(self, index, tracer: Tracer = Tracer(False, "")) -> Dict:
        """One pass of the request mix.  Returns the round-trip times per
        phase and what the pass observed: the cold responses, the store it
        left on disk, the servers' counters, the exact server's start-up
        time and, when traced, ping times and hit-response sizes."""
        ctx, jobs = self.ctx, self.jobs
        rng = ctx.rng("order", index)
        seen = {"cold": [], "hit": [], "degraded": [], "pings": [], "hit_bytes": []}
        with tracer.span("serve.server_start"):
            exact = Server(ctx, f"exact{index}")
        try:
            cold = {}
            for job in rng.sample(jobs, len(jobs)):
                rtt, response = exact.submit(job, tracer, "cold")
                seen["cold"].append(rtt)
                ctx.check(response.get("cached") is False
                          and response.get("degraded") is False,
                          f"cold {_job_id(job)}: answered from cache or degraded")
                cold[_job_id(job)] = response
            ctx.spin()
            for round_index in range(self.hit_rounds):
                if round_index % SPIN_EVERY_ROUNDS == 0:
                    ctx.spin()
                for job in rng.sample(jobs, len(jobs)):
                    rtt, response = exact.submit(job, tracer, "hit")
                    seen["hit"].append(rtt)
                    ctx.check(
                        response.get("cached") is True
                        and response.get("result") == cold[_job_id(job)].get("result"),
                        f"hit {_job_id(job)}: not cached or differs from its cold answer",
                    )
                    if tracer.enabled:
                        seen["hit_bytes"].append(
                            len(json.dumps(response, sort_keys=True)) + 1)
            stats = exact.client.stats()
            ctx.check(
                stats["stats"]["executed"] == len(jobs)
                and stats["stats"]["hits"] == self.hit_rounds * len(jobs)
                and stats["store_entries"] == len(jobs),
                f"exact server counted {stats['stats']}, "
                f"{stats['store_entries']} store entries",
            )
            before = self.degraded.client.stats()
            for job in rng.sample(jobs, len(jobs)):
                rtt, response = self.degraded.submit(job, tracer, "degraded")
                seen["degraded"].append(rtt)
                ctx.check(response.get("degraded") is True,
                          f"degraded {_job_id(job)}: answer not tagged degraded")
            ctx.spin()
            after = self.degraded.client.stats()
            ctx.check(after["store_entries"] == before["store_entries"] == 0,
                      "a degraded answer reached the store")
            if tracer.enabled:
                for __ in range(PING_SAMPLES):
                    began = time.perf_counter()
                    exact.client.ping()
                    seen["pings"].append(time.perf_counter() - began)
            exact.drain()
        finally:
            exact.kill()
        seen.update(
            responses=cold, store=exact.store, start=exact.start_seconds,
            stats={
                "executed": stats["stats"]["executed"],
                "hits": stats["stats"]["hits"],
                "degraded": after["stats"]["degraded"] - before["stats"]["degraded"],
                "failed": after["stats"]["failed"] - before["stats"]["failed"],
            },
        )
        return seen

    def pass_seconds(self, p50: Dict[str, float]) -> float:
        """One pass of the request mix with every request at its class's
        median: jobs x (cold + HIT_ROUNDS x hit + degraded)."""
        return len(self.jobs) * (
            p50["cold"] + self.hit_rounds * p50["hit"] + p50["degraded"]
        )

    def layer_calls(self, cold: Dict, store: str) -> Dict[str, float]:
        """Time, in this process, the public functions the server runs, on
        the payloads of one pass: its cold responses and the store it left."""
        from repro import RetryPolicy, Supervisor, make_app
        from repro.resilience import Task
        from repro.serve import ResultStore, ServeJournal
        from repro.serve.keys import config_hash, trace_hash
        from repro.serve.worker import execute_job

        ctx, tracer = self.ctx, self.ctx.tracer

        def per_call(name: str, calls) -> float:
            walls = []
            with tracer.span(name) as span:
                for call in calls:
                    began = time.perf_counter()
                    call()
                    walls.append(time.perf_counter() - began)
                span["counts"]["calls"] = len(walls)
            return median(walls)

        layers = {}
        apps = [make_app(name, scale="tiny")
                for name in dict.fromkeys(job["app"] for job in self.jobs)]
        layers["serve.keys.trace_hash_s"] = per_call(
            "serve.keys.trace_hash", [lambda a=a: trace_hash(a) for a in apps])
        layers["serve.keys.config_hash_s"] = per_call(
            "serve.keys.config_hash",
            [lambda j=j: config_hash(j["config"]) for j in self.jobs])

        served = ResultStore(store)
        payloads = {}

        def get(job):
            response = cold[_job_id(job)]
            payload = served.get(response["key"])
            payloads[response["key"]] = payload
            ctx.check(payload is not None
                      and payload["result"] == response["result"],
                      f"store entry of {_job_id(job)} differs from its cold answer")

        layers["serve.store.get_s"] = per_call(
            "serve.store.get", [lambda j=j: get(j) for j in self.jobs])
        scratch = ResultStore(str(ctx.workdir / "put-store"))
        layers["serve.store.put_s"] = per_call(
            "serve.store.put",
            [lambda k=k, p=p: scratch.put(k, p) for k, p in payloads.items() if p])
        with ServeJournal.create(str(ctx.workdir / "scratch.journal")) as journal:
            def record(job):
                key = cold[_job_id(job)]["key"]
                journal.record_job(key, job)
                journal.record_done(key, "stored")

            layers["serve.journal.record_s"] = per_call(
                "serve.journal.record", [lambda j=j: record(j) for j in self.jobs])

        def noop():
            # The server's own retry policy: the Supervisor can miss the result
            # of a task this short (it polls the pipe, then liveness, and the
            # worker may send and exit in between; seen about once in 60
            # no-ops), and a retry absorbs that as it does in the server.
            policy = RetryPolicy(max_attempts=3, base_delay=0.01)
            outcome = Supervisor(policy, workers=2).run([Task(key="noop", fn=int)])["noop"]
            ctx.check(outcome.ok, f"supervised no-op failed: {outcome.failure}")

        layers["resilience.supervisor.run_noop_s"] = per_call(
            "resilience.supervisor.run_noop", [noop] * NOOP_SAMPLES)

        def execute(job):
            result = execute_job(job["app"], job["scale"], job["config"],
                                 "rtx2080ti", job["simulator"])
            ctx.check(
                result["total_cycles"] == cold[_job_id(job)]["result"]["total_cycles"],
                f"execute_job({_job_id(job)}) disagrees with the server's answer")

        layers["serve.worker.execute_job_s"] = per_call(
            "serve.worker.execute_job", [lambda j=j: execute(j) for j in self.jobs])
        return layers


def share_one_cpu() -> None:
    """Pin this process, and with it every server and worker it starts, to
    one CPU.

    Client, server and worker are never busy at the same time, so nothing
    is lost; and a round trip becomes two context switches instead of two
    cross-CPU wake-ups, whose latency on a 2-vCPU guest depends on where
    the scheduler happened to put the processes (``hit_p50_ms`` read 0.6,
    0.8 and 1.2 ms in consecutive unpinned runs, 0.36-0.42 ms pinned).
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not this platform, or not allowed: run unpinned


def run(ctx: Ctx) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    share_one_cpu()
    degraded = Server(ctx, "degraded", DEGRADED_FLAGS)
    try:
        serve = ServeRun(ctx, degraded)
        passes = run_passes(ctx, serve.one_pass)
        pooled = {
            phase: [rtt for p in passes for rtt in p[phase]]
            for phase in ("cold", "hit", "degraded")
        }
        p50 = {phase: median(values) for phase, values in pooled.items()}
        metrics = {
            "setup_s": median([p["start"] for p in passes]),
            "pass_s": serve.pass_seconds(p50),
            "cold_p50_ms": p50["cold"] * 1e3,
            "hit_p50_ms": p50["hit"] * 1e3,
            "degraded_p50_ms": p50["degraded"] * 1e3,
        }
        samples = {
            "setup_s": len(passes), "pass_s": len(passes),
            "cold_p50_ms": len(pooled["cold"]), "hit_p50_ms": len(pooled["hit"]),
            "degraded_p50_ms": len(pooled["degraded"]),
        }
        layers: Dict[str, float] = {}
        if ctx.trace:
            traced = serve.one_pass("traced", ctx.tracer)
            traced_p50 = {phase: median(traced[phase]) for phase in pooled}
            layers = {
                "trace.overhead_x": serve.pass_seconds(traced_p50) / metrics["pass_s"],
                "serve.server_start_s": traced["start"],
                "serve.rtt_ping_ms": median(traced["pings"]) * 1e3,
                "serve.response_bytes": median(traced["hit_bytes"]),
                "serve.cold_p90_ms": percentile(pooled["cold"], 90) * 1e3,
                "serve.hit_p99_ms": percentile(pooled["hit"], 99) * 1e3,
                "serve.degraded_p90_ms": percentile(pooled["degraded"], 90) * 1e3,
            }
            for name, value in traced["stats"].items():
                layers[f"serve.stats.{name}"] = value
            layers.update(serve.layer_calls(traced["responses"], traced["store"]))
        degraded.drain()
    finally:
        degraded.kill()
    return metrics, layers, samples
