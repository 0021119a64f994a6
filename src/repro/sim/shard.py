"""Shard plans and cross-shard channels for the parallel engine.

The sharded engine (:mod:`repro.sim.parallel`) needs three things this
module provides:

* a :class:`ShardPlan` — the decomposition contract: which shard owns
  each module.  The production plan is built straight from the static
  partition manifest (``repro-partition/v1``, see
  :mod:`repro.analyze.partition`), so the runtime decomposition is
  exactly the one the SH rule family verified to have zero
  unsynchronized cross-shard writes;
* :class:`ShardChannel` / :class:`ChannelEndpoint` — the only legal
  cross-shard communication primitive in windowed mode: a latency-``L``
  message queue whose receive side is an ordinary
  :class:`~repro.sim.engine.ClockedModule`, so deliveries occur at
  exact cycles under the normal engine ordering rules (and therefore
  identically in serial and sharded runs);
* :func:`derive_lookahead` — the conservative window width, derived
  from the NoC latency that separates the SM side from the memory side
  in the paper's decomposition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, SimulationError
from repro.sim.engine import ClockedModule
from repro.sim.module import ModelLevel, Module

#: Component-name split used by the two-way fallback plan; mirrors the
#: SM-side / memory-side frozensets in :mod:`repro.analyze.partition`.
SM_SIDE_COMPONENTS = frozenset({
    "sm", "warp_scheduler", "alu_pipeline", "ldst_unit", "shared_memory",
    "frontend", "operand_collector", "block_scheduler",
})
MEM_SIDE_COMPONENTS = frozenset({"memory", "noc", "cache", "dram"})


@dataclass(frozen=True)
class CrossShardEdge:
    """One declared cross-shard port edge from the manifest."""

    caller: str
    callee: str
    target: str
    from_shard: str
    to_shard: str

    def key(self) -> str:
        return f"{self.caller}.{self.callee}->{self.target}"


class ShardPlan:
    """Maps every module of a simulation onto a named shard.

    Resolution order for :meth:`shard_for_module`:

    1. an explicit per-module-name assignment (``overrides``);
    2. the module's class name (walking the MRO, so subclasses inherit
       their base class's shard — the manifest lists concrete classes);
    3. the module's ``component`` attribute;
    4. the plan's ``fallback`` shard (raises if the plan has none).

    Plans are deliberately dumb, picklable data: a guard checkpoint of a
    sharded engine carries its plan.
    """

    def __init__(
        self,
        name: str,
        shards: Sequence[str],
        *,
        by_class: Optional[Mapping[str, str]] = None,
        by_component: Optional[Mapping[str, str]] = None,
        overrides: Optional[Mapping[str, str]] = None,
        cross_edges: Sequence[CrossShardEdge] = (),
        fallback: Optional[str] = None,
        source: str = "explicit",
    ) -> None:
        if not shards:
            raise ConfigError("a shard plan needs at least one shard")
        seen = set()
        ordered: List[str] = []
        for shard in shards:
            if shard not in seen:
                seen.add(shard)
                ordered.append(shard)
        self.name = name
        self.shards: Tuple[str, ...] = tuple(ordered)
        self.by_class: Dict[str, str] = dict(by_class or {})
        self.by_component: Dict[str, str] = dict(by_component or {})
        self.overrides: Dict[str, str] = dict(overrides or {})
        self.cross_edges: Tuple[CrossShardEdge, ...] = tuple(cross_edges)
        self.fallback = fallback
        self.source = source
        for mapping in (self.by_class, self.by_component, self.overrides):
            for key, shard in mapping.items():
                if shard not in seen:
                    raise ConfigError(
                        f"shard plan {name!r}: {key!r} assigned to unknown "
                        f"shard {shard!r}"
                    )
        if fallback is not None and fallback not in seen:
            raise ConfigError(
                f"shard plan {name!r}: fallback shard {fallback!r} is not "
                f"one of its shards"
            )

    # ------------------------------------------------------------------

    def shard_for_module(self, module: Module) -> str:
        """The shard that owns ``module`` (see class docstring for order)."""
        return self.shard_for(
            name=module.name,
            class_names=[klass.__name__ for klass in type(module).__mro__],
            component=module.component,
        )

    def shard_for(
        self,
        name: Optional[str] = None,
        class_names: Sequence[str] = (),
        component: Optional[str] = None,
    ) -> str:
        """Low-level resolver for callers that know a module's identity
        before the instance exists (the simulator assembles port proxies
        around references it hands to constructors)."""
        if name is not None:
            shard = self.overrides.get(name)
            if shard is not None:
                return shard
        for klass in class_names:
            shard = self.by_class.get(klass)
            if shard is not None:
                return shard
        if component is not None:
            shard = self.by_component.get(component)
            if shard is not None:
                return shard
        if self.fallback is not None:
            return self.fallback
        raise ConfigError(
            f"shard plan {self.name!r} does not place module "
            f"{name!r} (classes {list(class_names)!r}, component "
            f"{component!r}) and has no fallback shard"
        )

    def describe(self) -> Dict[str, object]:
        """JSON-able summary (CLI/bench artifacts)."""
        return {
            "name": self.name,
            "source": self.source,
            "shards": list(self.shards),
            "cross_edges": [edge.key() for edge in self.cross_edges],
            "fallback": self.fallback,
        }

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_manifest(
        cls,
        manifest: Mapping[str, object],
        *,
        name: str = "manifest",
        fallback: Optional[str] = None,
    ) -> "ShardPlan":
        """Build the production plan from a ``repro-partition/v1`` dict.

        The manifest's shard list becomes the shard set, its per-shard
        class lists become the class map, and its components double as a
        component map for classes the static analyzer never saw (e.g.
        test doubles that declare a known ``component``).  Callers that
        want stale-manifest protection should obtain ``manifest`` via
        :func:`repro.analyze.partition.load_manifest`.
        """
        shards_doc = manifest.get("shards")
        if not isinstance(shards_doc, list) or not shards_doc:
            raise ConfigError("partition manifest has no shards")
        shard_names: List[str] = []
        by_class: Dict[str, str] = {}
        by_component: Dict[str, str] = {}
        for entry in shards_doc:
            shard = str(entry["name"])
            shard_names.append(shard)
            for klass in entry.get("classes", []):
                by_class[str(klass)] = shard
            for component in entry.get("components", []):
                by_component.setdefault(str(component), shard)
        edges = []
        for doc in manifest.get("cross_shard_edges", []):
            edges.append(CrossShardEdge(
                caller=str(doc.get("caller", "?")),
                callee=str(doc.get("callee", "?")),
                target=str(doc.get("target", "?")),
                from_shard=str(doc.get("from_shard", "?")),
                to_shard=str(doc.get("to_shard", "?")),
            ))
        return cls(
            name,
            shard_names,
            by_class=by_class,
            by_component=by_component,
            cross_edges=edges,
            fallback=fallback,
            source="manifest",
        )

    @classmethod
    def two_way(cls, *, name: str = "two-way") -> "ShardPlan":
        """The coarse SM-side / memory-side split, by component name.

        Useful as the minimal non-trivial decomposition (2-shard golden
        runs) and as a fallback when no manifest is on disk.
        """
        by_component = {c: "sm" for c in SM_SIDE_COMPONENTS}
        by_component.update({c: "memory" for c in MEM_SIDE_COMPONENTS})
        return cls(
            name,
            ("sm", "memory"),
            by_component=by_component,
            fallback="sm",
            source="two-way",
        )

    @classmethod
    def explicit(
        cls,
        assignment: Mapping[str, str],
        *,
        name: str = "explicit",
        fallback: Optional[str] = None,
    ) -> "ShardPlan":
        """A plan from an explicit module-name -> shard mapping (tests)."""
        shards = []
        for shard in assignment.values():
            if shard not in shards:
                shards.append(shard)
        if fallback is not None and fallback not in shards:
            shards.append(fallback)
        return cls(
            name, shards, overrides=assignment, fallback=fallback,
            source="explicit",
        )


def derive_lookahead(config: object) -> int:
    """Conservative lookahead window width for ``config``, in cycles.

    The decomposition's cross-shard edges are the SM-side <-> memory-side
    port calls; the minimum latency any message needs to cross that
    boundary is one NoC traversal, so the NoC latency bounds how far a
    shard can safely run ahead without observing the other side.
    Clamped to >= 1 (a zero-latency NoC degenerates to lockstep).
    """
    noc = getattr(config, "noc", None)
    latency = getattr(noc, "latency", 1)
    try:
        latency = int(latency)
    except (TypeError, ValueError):
        latency = 1
    return max(1, latency)


# ----------------------------------------------------------------------
# channels


class ShardChannel:
    """An ordered, latency-``L`` message queue between two shards.

    A message sent at cycle ``c`` becomes visible to the receiving shard
    at exactly ``c + latency``; with ``latency >= lookahead`` every
    message sent inside a window ``[T, T + lookahead)`` delivers at or
    after the window end, which is what makes windows independently
    executable.  Messages deliver in ``(deliver_cycle, send_seq)``
    order — the same total order a serial run would observe.
    """

    def __init__(
        self,
        name: str,
        latency: int,
        *,
        src_shard: str = "?",
        dst_shard: str = "?",
    ) -> None:
        if latency < 1:
            raise ConfigError(
                f"channel {name!r}: latency must be >= 1 (got {latency}); "
                f"zero-latency cross-shard edges cannot be windowed"
            )
        self.name = name
        self.latency = latency
        self.src_shard = src_shard
        self.dst_shard = dst_shard
        self.endpoint: Optional["ChannelEndpoint"] = None
        self.sent = 0
        self.delivered = 0
        self._queue: List[Tuple[int, int, object]] = []
        self._seq = 0
        self._last_send = -1
        self._wake = None  # callable(deliver_cycle) or None (buffered)

    # -- send side ------------------------------------------------------

    def send(self, payload: object, cycle: int) -> int:
        """Enqueue ``payload`` at ``cycle``; returns the delivery cycle.

        Send cycles must be non-decreasing (the engine only moves
        forward), which keeps ``(deliver, seq)`` a true total order.
        """
        if cycle < self._last_send:
            raise SimulationError(
                f"channel {self.name!r}: send at cycle {cycle} after a send "
                f"at {self._last_send} (time ran backwards)"
            )
        self._last_send = cycle
        deliver = cycle + self.latency
        heapq.heappush(self._queue, (deliver, self._seq, payload))
        self._seq += 1
        self.sent += 1
        if self._wake is not None:
            self._wake(deliver)
        return deliver

    def inject(self, deliver: int, seq: int, payload: object) -> None:
        """Insert a message with an explicit ``(deliver, seq)`` key.

        The key, not the call order, fixes the delivery order.
        """
        heapq.heappush(self._queue, (deliver, seq, payload))
        self.sent += 1
        if self._wake is not None:
            self._wake(deliver)

    # -- receive side ---------------------------------------------------

    def bind_wakeup(self, wake) -> None:
        """Route sends to ``wake(deliver_cycle)`` — serial/lockstep mode,
        where the receiving engine can be woken immediately."""
        self._wake = wake

    def unbind(self) -> None:
        """Buffered mode (windowed runs): deliveries are armed at window
        boundaries by the coordinator, not per send."""
        self._wake = None

    def next_delivery(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        return len(self._queue)

    def pop_due(self, cycle: int) -> List[object]:
        """All payloads with ``deliver <= cycle``, in delivery order."""
        due: List[object] = []
        queue = self._queue
        while queue and queue[0][0] <= cycle:
            due.append(heapq.heappop(queue)[2])
        self.delivered += len(due)
        return due

    def __getstate__(self) -> Dict[str, object]:
        # Wake callbacks are bound closures over a live engine and do not
        # cross a pickle boundary (checkpoints); the engine re-binds at
        # ``run()``.
        state = dict(self.__dict__)
        state["_wake"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return (
            f"<ShardChannel {self.name!r} L={self.latency} "
            f"{self.src_shard}->{self.dst_shard} pending={self.pending()}>"
        )


class ChannelEndpoint(ClockedModule):
    """The receive side of a :class:`ShardChannel`, as a clocked module.

    Making delivery a normal engine event is what buys bit-equivalence:
    the endpoint is registered with a globally-unique rank like any
    other module, so "deliver the message, run the handler" happens at
    the same ``(cycle, rank)`` slot in serial, lockstep, and windowed
    runs alike.  The handler may return a wake-request cycle for the
    connected target module (e.g. "new work arrived, tick me next
    cycle"), which the endpoint forwards through the owning engine.
    """

    component = "shard_channel"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, channel: ShardChannel, name: Optional[str] = None) -> None:
        super().__init__(name or f"{channel.name}.endpoint")
        self.channel = channel
        channel.endpoint = self
        self.handler = None
        self.target: Optional[ClockedModule] = None
        self._engine = None

    def connect(self, target: ClockedModule, handler=None) -> None:
        """Deliver into ``target`` (default handler: ``target.on_message``)."""
        self.target = target
        self.handler = handler if handler is not None else target.on_message

    def attach_engine(self, engine) -> None:
        self._engine = engine

    def tick(self, cycle: int) -> Optional[int]:
        for payload in self.channel.pop_due(cycle):
            self.counters.add("delivered")
            wake_at = self.handler(payload, cycle) if self.handler else None
            if (
                wake_at is not None
                and self._engine is not None
                and self.target is not None
            ):
                self._engine.wake(self.target, wake_at)
        return self.channel.next_delivery()

    def is_done(self) -> bool:
        return self.channel.pending() == 0
