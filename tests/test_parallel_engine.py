"""Bit-equivalence property suite for the sharded PDES engine.

The contract under test (docs/parallel-engine.md): for *any* module
graph, *any* shard assignment, and *any* legal lookahead window, a
sharded run — lockstep or windowed — is bit-identical to the serial
:class:`repro.sim.engine.Engine`: same final cycle, same value of every
counter on every module.

The generator strategy is shrinking-friendly by construction: node and
edge lists shrink toward empty, every numeric field shrinks toward its
minimum, so a failing example collapses to the smallest graph that
still diverges.

``REPRO_PDES_EXAMPLES`` bounds the example count (CI uses a small
bound; the default of 200 is the acceptance bar for local runs).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    CycleBudgetExceeded,
    ShardSyncError,
    SimulationError,
)
from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.sim.parallel import ShardedEngine
from repro.sim.shard import ShardPlan
from repro.sim.synthetic import (
    EdgeSpec,
    NodeSpec,
    SyntheticSpec,
    attach_serial,
    attach_sharded,
    build_system,
    collect_counters,
    demo_spec,
)

EXAMPLES = int(os.environ.get("REPRO_PDES_EXAMPLES", "200"))

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def specs(draw):
    """Random small module graphs with random shard assignments."""
    n_shards = draw(st.integers(min_value=1, max_value=3))
    n_nodes = draw(st.integers(min_value=1, max_value=5))
    nodes = tuple(
        NodeSpec(
            name=f"n{i}",
            shard=f"sh{draw(st.integers(0, n_shards - 1))}",
            seed=draw(st.integers(min_value=0, max_value=2**32)),
            work=draw(st.integers(min_value=0, max_value=10)),
            bonus=draw(st.integers(min_value=0, max_value=3)),
            max_stride=draw(st.integers(min_value=1, max_value=4)),
            emit_every=draw(st.integers(min_value=0, max_value=3)),
        )
        for i in range(n_nodes)
    )
    n_edges = draw(st.integers(min_value=0, max_value=4))
    edges = tuple(
        EdgeSpec(
            name=f"e{j}",
            src=f"n{draw(st.integers(0, n_nodes - 1))}",
            dst=f"n{draw(st.integers(0, n_nodes - 1))}",
            latency=draw(st.integers(min_value=1, max_value=8)),
        )
        for j in range(n_edges)
    )
    return SyntheticSpec(nodes, edges).validate()


def run_serial(spec, allow_jump=True, checker=None):
    modules, channels = build_system(spec)
    engine = Engine(allow_jump=allow_jump)
    if checker is not None:
        engine.attach_checker(checker)
    attach_serial(engine, modules, channels)
    final = engine.run()
    return final, collect_counters(modules)


def run_sharded(spec, mode, allow_jump=True, lookahead=1, checker=None):
    modules, _channels = build_system(spec)
    engine = ShardedEngine(
        spec.plan(), allow_jump=allow_jump, mode=mode, lookahead=lookahead,
    )
    if checker is not None:
        engine.attach_checker(checker)
    attach_sharded(engine, modules)
    final = engine.run()
    return final, collect_counters(modules), engine


@settings(max_examples=EXAMPLES, **COMMON)
@given(spec=specs(), allow_jump=st.booleans())
def test_lockstep_is_bit_identical_to_serial(spec, allow_jump):
    serial_final, serial_counters = run_serial(spec, allow_jump)
    final, counters, engine = run_sharded(spec, "lockstep", allow_jump)
    assert final == serial_final
    assert counters == serial_counters
    assert sum(engine.stats.ticks.values()) > 0 or serial_final == 0


@settings(max_examples=EXAMPLES, **COMMON)
@given(spec=specs(), allow_jump=st.booleans(), data=st.data())
def test_windowed_is_bit_identical_to_serial(spec, allow_jump, data):
    lookahead = data.draw(
        st.integers(min_value=1, max_value=spec.min_cross_latency()),
        label="lookahead",
    )
    serial_final, serial_counters = run_serial(spec, allow_jump)
    final, counters, _engine = run_sharded(
        spec, "windowed", allow_jump, lookahead=lookahead,
    )
    assert final == serial_final
    assert counters == serial_counters


class _TickRecorder(EngineChecker):
    def __init__(self):
        self.ticks = []
        self.cycle_starts = []

    def on_tick(self, module, cycle, rank):
        self.ticks.append((cycle, rank, module.name))

    def on_cycle_start(self, cycle):
        self.cycle_starts.append(cycle)


@settings(max_examples=min(EXAMPLES, 100), **COMMON)
@given(spec=specs(), allow_jump=st.booleans())
def test_lockstep_preserves_exact_serial_tick_order(spec, allow_jump):
    """Lockstep doesn't just match outcomes — it replays the serial
    engine's (cycle, rank) pop order tick for tick."""
    serial_rec = _TickRecorder()
    run_serial(spec, allow_jump, checker=serial_rec)
    sharded_rec = _TickRecorder()
    run_sharded(spec, "lockstep", allow_jump, checker=sharded_rec)
    assert sharded_rec.ticks == serial_rec.ticks
    assert sharded_rec.cycle_starts == serial_rec.cycle_starts


@settings(max_examples=min(EXAMPLES, 100), **COMMON)
@given(spec=specs(), data=st.data())
def test_windowed_boundaries_are_serial_cycle_starts(spec, data):
    """Window boundaries fire on_cycle_start strictly monotonically, at
    cycles the serial engine also recognized as cycle boundaries."""
    lookahead = data.draw(
        st.integers(min_value=1, max_value=spec.min_cross_latency()),
        label="lookahead",
    )
    serial_rec = _TickRecorder()
    run_serial(spec, True, checker=serial_rec)
    sharded_rec = _TickRecorder()
    run_sharded(spec, "windowed", True, lookahead=lookahead,
                checker=sharded_rec)
    starts = sharded_rec.cycle_starts
    assert starts == sorted(set(starts))
    assert set(starts) <= set(serial_rec.cycle_starts)


def test_cycle_budget_parity():
    """Budget exhaustion raises the identical typed error in both engines."""
    spec = SyntheticSpec((
        NodeSpec(name="a", shard="s0", work=500, max_stride=4, emit_every=0),
        NodeSpec(name="b", shard="s1", work=500, max_stride=4, emit_every=0),
    )).validate()
    with pytest.raises(CycleBudgetExceeded) as serial_exc:
        modules, channels = build_system(spec)
        engine = Engine()
        attach_serial(engine, modules, channels)
        engine.run(max_cycles=40)
    with pytest.raises(CycleBudgetExceeded) as sharded_exc:
        modules, _channels = build_system(spec)
        engine = ShardedEngine(spec.plan())
        attach_sharded(engine, modules)
        engine.run(max_cycles=40)
    assert sharded_exc.value.budget == serial_exc.value.budget
    assert sharded_exc.value.cycle == serial_exc.value.cycle
    assert sharded_exc.value.module_name == serial_exc.value.module_name


class _Waker(ClockedModule):
    component = "synthetic"

    def __init__(self, name, target):
        super().__init__(name)
        self.target = target
        self.engine = None
        self.fired = False

    def tick(self, cycle):
        if not self.fired and self.target is not None:
            self.fired = True
            self.engine.wake(self.target, cycle + 1)
        return None

    def is_done(self):
        return True


def test_windowed_rejects_direct_cross_shard_wake():
    """A cross-shard wake mid-window is the runtime SH501 violation."""
    plan = ShardPlan.explicit({"peer": "s0", "waker": "s1"})
    peer = _Waker("peer", None)
    waker = _Waker("waker", peer)
    engine = ShardedEngine(plan, mode="windowed", lookahead=2)
    engine.add(peer)
    engine.add(waker)
    waker.engine = engine
    with pytest.raises(ShardSyncError):
        engine.run()


def test_windowed_allows_intra_shard_wake():
    plan = ShardPlan.explicit({"peer": "s0", "waker": "s0"})
    peer = _Waker("peer", None)
    waker = _Waker("waker", peer)
    engine = ShardedEngine(plan, mode="windowed", lookahead=2)
    engine.add(peer)
    engine.add(waker)
    waker.engine = engine
    engine.run()


def test_windowed_rejects_channel_latency_below_lookahead():
    spec = SyntheticSpec(
        (
            NodeSpec(name="a", shard="s0", work=4, emit_every=1),
            NodeSpec(name="b", shard="s1", work=4, emit_every=0),
        ),
        (EdgeSpec(name="x", src="a", dst="b", latency=2),),
    ).validate()
    modules, _channels = build_system(spec)
    engine = ShardedEngine(spec.plan(), mode="windowed", lookahead=3)
    attach_sharded(engine, modules)
    with pytest.raises(ShardSyncError):
        engine.run()


def test_lockstep_permits_any_channel_latency():
    """Lockstep needs no lookahead discipline — it is correct for every
    latency, which is why it is the safe default for the real simulators."""
    spec = SyntheticSpec(
        (
            NodeSpec(name="a", shard="s0", work=6, emit_every=1),
            NodeSpec(name="b", shard="s1", work=6, emit_every=0, bonus=2),
        ),
        (EdgeSpec(name="x", src="a", dst="b", latency=1),),
    ).validate()
    serial_final, serial_counters = run_serial(spec, True)
    final, counters, _engine = run_sharded(spec, "lockstep", True)
    assert (final, counters) == (serial_final, serial_counters)


def test_sharded_engine_rejects_duplicate_add_and_unknown_wake():
    plan = ShardPlan.explicit({"peer": "s0"})
    peer = _Waker("peer", None)
    stranger = _Waker("stranger", None)
    engine = ShardedEngine(plan, mode="lockstep")
    engine.add(peer)
    with pytest.raises(SimulationError):
        engine.add(peer)
    with pytest.raises(SimulationError):
        engine.wake(stranger, 5)


def test_sharded_engine_validates_mode_and_lookahead():
    plan = ShardPlan.explicit({"peer": "s0"})
    with pytest.raises(SimulationError):
        ShardedEngine(plan, mode="optimistic")
    with pytest.raises(SimulationError):
        ShardedEngine(plan, mode="windowed", lookahead=0)


def test_shard_plan_resolution_and_validation():
    plan = ShardPlan.two_way()
    assert set(plan.shards) == {"sm", "memory"}
    with pytest.raises(ConfigError):
        ShardPlan("bad", ())
    with pytest.raises(ConfigError):
        ShardPlan("bad", ("a",), by_class={"X": "nope"})
    strict = ShardPlan.explicit({"known": "s0"})
    unplaced = _Waker("unplaced", None)
    with pytest.raises(ConfigError):
        strict.shard_for_module(unplaced)


def test_stats_account_for_every_tick():
    spec = demo_spec(shards=2, nodes_per_shard=2, seed=3)
    serial_rec = _TickRecorder()
    run_serial(spec, True, checker=serial_rec)
    _final, _counters, engine = run_sharded(spec, "lockstep", True)
    assert sum(engine.stats.ticks.values()) == len(serial_rec.ticks)
    assert engine.stats.messages_sent == engine.stats.messages_delivered
    description = engine.stats.describe()
    assert description["mode"] == "lockstep"
    assert set(description["shards"]) == set(spec.shards)
