"""Unit tests for the cross-shard channel layer.

Covers the two properties the windowed PDES protocol leans on:
message ordering (``(deliver, seq)`` total order) and window-boundary
flush (no message survives a run).
"""

import pickle

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.parallel import ShardedEngine
from repro.sim.shard import ChannelEndpoint, ShardChannel
from repro.sim.synthetic import (
    EdgeSpec,
    NodeSpec,
    SyntheticSpec,
    attach_sharded,
    build_system,
)


def two_shard_spec(latency=4):
    return SyntheticSpec(
        (
            NodeSpec(name="src0", shard="left", seed=5, work=20,
                     emit_every=1, max_stride=2),
            NodeSpec(name="src1", shard="left", seed=9, work=15,
                     emit_every=2, max_stride=3),
            NodeSpec(name="sink", shard="right", seed=13, work=6,
                     bonus=8, emit_every=0),
        ),
        (
            EdgeSpec(name="ch0", src="src0", dst="sink", latency=latency),
            EdgeSpec(name="ch1", src="src1", dst="sink", latency=latency),
        ),
    ).validate()


# ----------------------------------------------------------------------
# ordering


def test_messages_deliver_in_send_order():
    channel = ShardChannel("ch", latency=3)
    channel.send("first", 0)
    channel.send("second", 0)   # same cycle: seq breaks the tie
    channel.send("third", 1)
    assert channel.next_delivery() == 3
    assert channel.pop_due(2) == []
    assert channel.pop_due(3) == ["first", "second"]
    assert channel.pop_due(4) == ["third"]
    assert channel.pending() == 0
    assert channel.sent == 3 and channel.delivered == 3


def test_send_cycles_must_be_monotonic():
    channel = ShardChannel("ch", latency=2)
    channel.send("a", 5)
    with pytest.raises(SimulationError):
        channel.send("b", 4)


def test_zero_latency_channels_are_rejected():
    with pytest.raises(ConfigError):
        ShardChannel("ch", latency=0)


def test_injected_messages_keep_their_keys():
    channel = ShardChannel("ch", latency=5)
    channel.inject(9, 1, "later")
    channel.inject(9, 0, "earlier")
    channel.inject(4, 7, "first")
    assert channel.pop_due(9) == ["first", "earlier", "later"]


def test_channel_pickles_without_live_bindings():
    channel = ShardChannel("ch", latency=2)
    woken = []
    channel.bind_wakeup(woken.append)
    channel.send("payload", 1)
    clone = pickle.loads(pickle.dumps(channel))
    clone.send("later", 2)
    assert woken == [3]  # the clone carries no wake binding
    assert clone.pop_due(4) == ["payload", "later"]


# ----------------------------------------------------------------------
# window-boundary flush


def test_windowed_run_flushes_every_message():
    spec = two_shard_spec()
    modules, channels = build_system(spec)
    engine = ShardedEngine(
        spec.plan(), mode="windowed", lookahead=spec.min_cross_latency(),
    )
    attach_sharded(engine, modules)
    engine.run()
    for channel in channels.values():
        assert channel.pending() == 0
        assert channel.delivered == channel.sent
    assert engine.stats.windows > 0
    assert engine.stats.messages_sent == engine.stats.messages_delivered


def test_endpoint_not_done_while_messages_pend():
    channel = ShardChannel("ch", latency=2)
    endpoint = ChannelEndpoint(channel)
    assert endpoint.is_done()
    channel.send("x", 0)
    assert not endpoint.is_done()
    endpoint.tick(2)
    assert endpoint.is_done()
    assert endpoint.counters.get("delivered") == 1
