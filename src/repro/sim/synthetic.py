"""Deterministic synthetic module graphs for the PDES test harness.

The bit-equivalence property suite needs module graphs that are (a)
fully deterministic given a seed and (b) communication-rich enough to
exercise cross-shard channels, jumps, wakes, and same-cycle ties.
:class:`SyntheticSpec` is that: a pure-data description of a node/edge
graph that :func:`build_system` turns into live modules with fixed
names, channel sequence numbers, and global registration ranks, so the
serial, lockstep and windowed execution modes produce bit-identical
counters.

Nodes advance a 64-bit LCG once per tick; every architectural decision
(work amount, stride, whether/where to emit a message) derives from
that stream, so any divergence in tick schedule between two modes shows
up immediately as a counter mismatch — the property the hypothesis
suite shrinks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.sim.engine import ClockedModule, Engine
from repro.sim.module import ModelLevel
from repro.sim.shard import ChannelEndpoint, ShardChannel, ShardPlan

_LCG_MULT = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NodeSpec:
    """One synthetic node: seeded work generator, optionally emitting."""

    name: str
    shard: str
    seed: int = 1
    work: int = 8          # ticks of base work
    bonus: int = 2         # extra ticks grantable by incoming messages
    max_stride: int = 3    # tick returns cycle + 1 + (r % max_stride)
    emit_every: int = 2    # emit when r % emit_every == 0 (0 = never)


@dataclass(frozen=True)
class EdgeSpec:
    """A message channel from ``src`` node to ``dst`` node."""

    name: str
    src: str
    dst: str
    latency: int = 4


@dataclass(frozen=True)
class SyntheticSpec:
    """A whole synthetic system; pure data, picklable, importable-safe."""

    nodes: Tuple[NodeSpec, ...]
    edges: Tuple[EdgeSpec, ...] = ()

    def validate(self) -> "SyntheticSpec":
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate node names in spec: {names}")
        if not self.nodes:
            raise WorkloadError("synthetic spec needs at least one node")
        edge_names = [edge.name for edge in self.edges]
        if len(set(edge_names)) != len(edge_names):
            raise WorkloadError(f"duplicate edge names in spec: {edge_names}")
        known = set(names)
        for edge in self.edges:
            if edge.src not in known or edge.dst not in known:
                raise WorkloadError(
                    f"edge {edge.name!r} references unknown node(s): "
                    f"{edge.src!r} -> {edge.dst!r}"
                )
            if edge.latency < 1:
                raise WorkloadError(
                    f"edge {edge.name!r}: latency must be >= 1"
                )
        for node in self.nodes:
            if node.work < 0 or node.bonus < 0 or node.max_stride < 1:
                raise WorkloadError(f"node {node.name!r}: invalid parameters")
        return self

    # ------------------------------------------------------------------

    @property
    def shards(self) -> Tuple[str, ...]:
        ordered: List[str] = []
        for node in self.nodes:
            if node.shard not in ordered:
                ordered.append(node.shard)
        return tuple(ordered)

    def shard_of_node(self, name: str) -> str:
        for node in self.nodes:
            if node.name == name:
                return node.shard
        raise WorkloadError(f"unknown node {name!r}")

    def cross_edges(self) -> Tuple[EdgeSpec, ...]:
        return tuple(
            edge for edge in self.edges
            if self.shard_of_node(edge.src) != self.shard_of_node(edge.dst)
        )

    def min_cross_latency(self) -> int:
        cross = self.cross_edges()
        return min((edge.latency for edge in cross), default=1)

    def plan(self) -> ShardPlan:
        """Explicit plan placing every node and endpoint of this spec."""
        assignment: Dict[str, str] = {
            node.name: node.shard for node in self.nodes
        }
        for edge in self.edges:
            assignment[f"{edge.name}.endpoint"] = self.shard_of_node(edge.dst)
        return ShardPlan.explicit(assignment, name="synthetic")


class SyntheticNode(ClockedModule):
    """A seeded work generator; all behavior derives from one LCG."""

    component = "synthetic"
    level = ModelLevel.HYBRID

    def __init__(self, spec: NodeSpec) -> None:
        super().__init__(spec.name)
        self.state = spec.seed & _LCG_MASK or 1
        self.remaining = spec.work
        self.bonus_budget = spec.bonus
        self.max_stride = spec.max_stride
        self.emit_every = spec.emit_every
        self.outputs: List[ShardChannel] = []

    def _rand(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        return self.state >> 11

    def tick(self, cycle: int) -> Optional[int]:
        if self.remaining <= 0:
            return None
        draw = self._rand()
        self.counters.add("ticks")
        self.counters.add("work_units", 1 + draw % 5)
        self.remaining -= 1
        if (
            self.outputs
            and self.emit_every
            and draw % self.emit_every == 0
        ):
            channel = self.outputs[draw % len(self.outputs)]
            channel.send((self.name, self.remaining, draw % 997), cycle)
            self.counters.add("sent")
        if self.remaining <= 0:
            return None
        return cycle + 1 + (draw % self.max_stride)

    def on_message(self, payload: object, cycle: int) -> Optional[int]:
        """Channel delivery handler; may request a wake for bonus work."""
        self.counters.add("received")
        self.counters.add("payload_sum", payload[2])
        if self.bonus_budget > 0:
            self.bonus_budget -= 1
            self.remaining += 1
            self.counters.add("bonus_work")
            return cycle + 1
        return None

    def is_done(self) -> bool:
        return self.remaining <= 0


# ----------------------------------------------------------------------
# builders


def _rank_map(spec: SyntheticSpec) -> Dict[str, int]:
    """Global registration ranks: nodes in spec order, then endpoints in
    edge order."""
    ranks: Dict[str, int] = {}
    for index, node in enumerate(spec.nodes):
        ranks[node.name] = index
    base = len(spec.nodes)
    for index, edge in enumerate(spec.edges):
        ranks[f"{edge.name}.endpoint"] = base + index
    return ranks


def build_system(
    spec: SyntheticSpec,
) -> Tuple[List[Tuple[ClockedModule, int, int]], Dict[str, ShardChannel]]:
    """Build the full system: ``([(module, start, rank)], channels)``."""
    spec.validate()
    ranks = _rank_map(spec)
    nodes = {node.name: SyntheticNode(node) for node in spec.nodes}
    channels: Dict[str, ShardChannel] = {}
    modules: List[Tuple[ClockedModule, int, int]] = [
        (nodes[node.name], 0, ranks[node.name]) for node in spec.nodes
    ]
    for edge in spec.edges:
        channel = ShardChannel(
            edge.name,
            edge.latency,
            src_shard=spec.shard_of_node(edge.src),
            dst_shard=spec.shard_of_node(edge.dst),
        )
        channels[edge.name] = channel
        nodes[edge.src].outputs.append(channel)
        endpoint = ChannelEndpoint(channel)
        endpoint.connect(nodes[edge.dst])
        modules.append((endpoint, 0, ranks[endpoint.name]))
    return modules, channels


def attach_serial(
    engine: Engine,
    modules: List[Tuple[ClockedModule, int, int]],
    channels: Dict[str, ShardChannel],
) -> None:
    """Register a :func:`build_system` result with a plain serial engine.

    Channels wake their endpoints directly — the reference behavior the
    sharded modes must reproduce bit-exactly.
    """
    for module, start, rank in modules:
        if isinstance(module, ChannelEndpoint):
            module.attach_engine(engine)
        engine.add(module, start, rank=rank)
    for channel in channels.values():
        endpoint = channel.endpoint
        if endpoint is not None:
            channel.bind_wakeup(
                lambda deliver, _e=endpoint, _g=engine: _g.wake(_e, deliver)
            )


def attach_sharded(engine, modules: List[Tuple[ClockedModule, int, int]]) -> None:
    """Register a :func:`build_system` result with a ShardedEngine.

    Channel binding is mode-dependent, so the sharded engine handles it
    itself at ``run()`` time (endpoints register their channels on add).
    """
    for module, start, rank in modules:
        engine.add(module, start, rank=rank)


def demo_spec(
    *, shards: int = 2, nodes_per_shard: int = 3, seed: int = 7,
    latency: int = 4,
) -> SyntheticSpec:
    """A ring-connected demo system (bench + smoke tests).

    Each shard hosts a pipeline of nodes; the last node of each shard
    feeds the first node of the next shard over a cross-shard channel,
    so every shard both sends and receives.
    """
    node_specs: List[NodeSpec] = []
    for s in range(shards):
        for i in range(nodes_per_shard):
            node_specs.append(NodeSpec(
                name=f"s{s}n{i}",
                shard=f"shard{s}",
                seed=seed + 17 * s + i,
                work=24 + 5 * ((seed + s + i) % 4),
                bonus=3,
                max_stride=3 + (i % 3),
                emit_every=2,
            ))
    edge_specs: List[EdgeSpec] = []
    for s in range(shards):
        edge_specs.append(EdgeSpec(
            name=f"ring{s}",
            src=f"s{s}n{nodes_per_shard - 1}",
            dst=f"s{(s + 1) % shards}n0",
            latency=latency,
        ))
        if nodes_per_shard > 1:
            edge_specs.append(EdgeSpec(
                name=f"local{s}",
                src=f"s{s}n0",
                dst=f"s{s}n1",
                latency=2,
            ))
    return SyntheticSpec(tuple(node_specs), tuple(edge_specs)).validate()


def collect_counters(
    modules: List[Tuple[ClockedModule, int, int]],
) -> Dict[str, Dict[str, int]]:
    """Flat ``{module_name: counters}`` snapshot for equivalence diffs."""
    out: Dict[str, Dict[str, int]] = {}
    for module, _start, _rank in modules:
        for walked in module.walk():
            out[walked.name] = walked.counters.as_dict()
    return out
