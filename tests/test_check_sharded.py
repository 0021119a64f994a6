"""Sharded check pillar + golden-cycle regression for sharded runs.

`tests/data/golden_sharded_cycles.json` snapshots the cycle counts of
all three simulators over the Rodinia suite on the RTX 2080 Ti preset,
run on the sharded PDES engine under both default decompositions (the
two-way SM/memory split and the full partition-manifest plan).  Two
invariants are pinned:

* **regression**: sharded cycle counts never drift from the snapshot;
* **cross-check**: every sharded entry equals the *serial* golden entry
  in ``golden_suite_cycles.json`` — the bit-equivalence contract means
  the two fixtures can never legitimately disagree.  A timing-model
  change therefore regenerates both fixtures together (same recipe as
  the serial one, plus ``shard_plan=`` per plan).
"""

import json
import pathlib

import pytest

from repro import AccelSimLike, SwiftSimBasic, SwiftSimMemory, get_preset, make_app
from repro.check.sharded import default_shard_plans, sharded_equivalence_check
from repro.sim.engine import EngineChecker
from repro.sim.shard import ShardPlan

DATA = pathlib.Path(__file__).parent / "data"

with (DATA / "golden_sharded_cycles.json").open() as _fh:
    FIXTURE = json.load(_fh)
with (DATA / "golden_suite_cycles.json").open() as _fh:
    SERIAL_FIXTURE = json.load(_fh)

_SIMULATORS = {
    "AccelSimLike": AccelSimLike,
    "SwiftSimBasic": SwiftSimBasic,
    "SwiftSimMemory": SwiftSimMemory,
}


@pytest.fixture(scope="module")
def plans():
    """Both default decompositions, keyed by plan name (the manifest
    plan is built once from the live tree — it is the expensive part)."""
    resolved = {plan.name: plan for plan in default_shard_plans()}
    assert sorted(resolved) == FIXTURE["plans"]
    return resolved


def test_fixtures_cover_the_same_suite():
    assert FIXTURE["suite"] == SERIAL_FIXTURE["suite"]
    assert FIXTURE["scale"] == SERIAL_FIXTURE["scale"]
    assert FIXTURE["gpu_preset"] == SERIAL_FIXTURE["gpu_preset"]
    assert sorted(FIXTURE["cycles"]) == sorted(SERIAL_FIXTURE["cycles"])


def test_sharded_golden_equals_serial_golden():
    """The fixtures themselves must embody bit-equivalence: a sharded
    golden entry that differs from the serial golden is a fixture bug
    (or a contract violation snapshotted by mistake)."""
    for app_name, per_sim in FIXTURE["cycles"].items():
        for sim_name, per_plan in per_sim.items():
            serial = SERIAL_FIXTURE["cycles"][app_name][sim_name]
            for plan_name, cycles in per_plan.items():
                assert cycles == serial, (
                    f"{sim_name} on {app_name} [{plan_name}]: sharded "
                    f"golden {cycles} != serial golden {serial}"
                )


@pytest.mark.parametrize("plan_name", FIXTURE["plans"])
@pytest.mark.parametrize("app_name", sorted(FIXTURE["cycles"]))
@pytest.mark.parametrize("simulator_name", sorted(_SIMULATORS))
def test_golden_sharded_cycles(simulator_name, app_name, plan_name, plans):
    gpu = get_preset(FIXTURE["gpu_preset"])
    app = make_app(app_name, scale=FIXTURE["scale"])
    simulator = _SIMULATORS[simulator_name](gpu)
    cycles = simulator.simulate(
        app, gather_metrics=False, shard_plan=plans[plan_name]
    ).total_cycles
    golden = FIXTURE["cycles"][app_name][simulator_name][plan_name]
    assert cycles == golden, (
        f"{simulator_name} on {app_name} [{plan_name}]: sharded timing "
        f"changed (got {cycles}, golden {golden}); the parallel engine "
        f"must never shift cycle counts — fix the engine, do not "
        f"regenerate (unless the serial golden moved too)"
    )


def test_equivalence_check_compares_every_counter(plans):
    """The pillar itself: full-metrics comparison (no tick-observer
    exclusions) comes back clean on the manifest decomposition."""
    gpu = get_preset(FIXTURE["gpu_preset"])
    app = make_app("bfs", scale="tiny")
    findings = sharded_equivalence_check(
        SwiftSimMemory(gpu), app, plans["manifest"]
    )
    assert [f for f in findings if f.severity == "violation"] == []
    assert any("bit-identical" in f.message for f in findings)


class _TickCounter(EngineChecker):
    def __init__(self):
        self.ticks = 0

    def on_tick(self, module, cycle, rank):
        self.ticks += 1


@pytest.mark.parametrize("app_name", ["bfs", "gemm"])
@pytest.mark.parametrize("simulator_name", sorted(_SIMULATORS))
def test_memory_side_tick_share_under_the_two_way_cut(simulator_name, app_name):
    """Pins the measurement that closed ROADMAP item 2
    (docs/parallel-engine.md, "Why the production simulators stay
    lockstep"): cut at SM | memory, the hybrid tiers clock nothing on the
    memory side and the cycle-accurate baseline under 5 % of its ticks,
    so no windowed schedule of this graph can beat 1/(1 - share).  If
    this fails because a tier gained a clocked memory side, re-measure
    the bound before touching the threshold."""
    gpu = get_preset(FIXTURE["gpu_preset"])
    app = make_app(app_name, scale="tiny")
    simulator = _SIMULATORS[simulator_name](gpu)
    counter = _TickCounter()
    simulator.simulate(app, gather_metrics=False, checker=counter)
    ticks = simulator.simulate(
        app, gather_metrics=False, shard_plan=ShardPlan.two_way()
    ).sharding["shard_ticks"]
    assert sum(ticks.values()) == counter.ticks
    if simulator_name == "AccelSimLike":
        assert 0 < ticks["memory"] < 0.05 * counter.ticks
    else:
        assert ticks.get("memory", 0) == 0


def test_runner_exposes_the_sharded_mode():
    from repro.check import MODES

    assert "sharded" in MODES
