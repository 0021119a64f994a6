"""Experiment PDES — sharded-engine cost measurement.

One measurement, persisted as ``BENCH_pdes_speedup.json`` for the CI
artifact trail: **real-sim lockstep overhead**, the production
simulators under the partition-manifest decomposition.  Lockstep
serializes ticks globally (that is *why* it is bit-exact), so it
measures the bookkeeping overhead of the sharded dispatch path, not a
speedup (``docs/parallel-engine.md`` records why no faster mode exists).

Correctness is gated hard (cycles bit-identical — the equivalence
contract); the wall-clock ratio is recorded, not gated.
"""

from __future__ import annotations

import time

import pytest

from repro.profile import machine_info, write_bench_artifact


def _time(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


@pytest.fixture(scope="module")
def pdes_record():
    return {"machine": machine_info(), "realsim": {}}


def test_realsim_lockstep_overhead(pdes_record, gpu):
    from repro.check.sharded import default_shard_plans
    from repro.simulators.swift_memory import SwiftSimMemory
    from repro.tracegen.suites import make_app

    plan = default_shard_plans()[-1]  # the manifest decomposition
    per_app = {}
    for name in ("bfs", "gemm"):
        app = make_app(name, scale="tiny")
        simulator = SwiftSimMemory(gpu)
        serial, serial_wall = _time(
            lambda: simulator.simulate(app, gather_metrics=False)
        )
        sharded, sharded_wall = _time(
            lambda: simulator.simulate(
                app, gather_metrics=False, shard_plan=plan
            )
        )
        assert sharded.total_cycles == serial.total_cycles, name
        per_app[name] = {
            "cycles": serial.total_cycles,
            "serial_wall_seconds": serial_wall,
            "sharded_wall_seconds": sharded_wall,
            "overhead_ratio": (
                sharded_wall / serial_wall if serial_wall else 0.0
            ),
            "port_traffic": sharded.sharding["port_traffic"],
        }
    pdes_record["realsim"] = {
        "simulator": simulator.name,
        "plan": plan.describe(),
        "apps": per_app,
    }


def test_write_pdes_artifact(pdes_record):
    """Last in file order: persists what the measurements recorded."""
    assert pdes_record["realsim"], "real-sim measurement did not run"
    path = write_bench_artifact("pdes_speedup", pdes_record)
    print(f"\nwrote {path}")
