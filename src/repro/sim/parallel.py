"""Conservative-lookahead parallel discrete-event engine (PDES core).

:class:`ShardedEngine` partitions the module graph across *shards*
according to a :class:`~repro.sim.shard.ShardPlan` — in production, the
plan built from the static partition manifest
(:mod:`repro.analyze.partition`) — and runs each shard on its own
:class:`~repro.sim.engine.Engine` instance.  It is a drop-in for
``Engine`` at the call sites that matter (``add`` / ``wake`` / ``run`` /
``attach_checker`` / ``cycle`` / ``modules``), so the simulators, the
guard, and the checkers all work unchanged on top of it.

Two execution modes, one contract — **bit-equivalence with the serial
engine**:

``lockstep``
    The coordinator always advances the shard whose earliest live event
    has the globally minimal ``(cycle, rank)`` key.  Because ranks are
    globally unique (assigned in registration order across all shards),
    this reproduces the serial engine's pop order *exactly*, tick for
    tick — even for module graphs that communicate through synchronous
    port calls.  This is the mode the real simulators run in: their
    port edges (``try_issue``, ``access_global``) return results in the
    same call, which no latency channel can defer without changing
    timing.  Lockstep is the conservative floor — correct for every
    graph, parallel in structure (per-shard engines, heaps, and clock
    domains) but serialized in time.

``windowed``
    True conservative PDES: shards run independently through a window
    ``[T, T + lookahead)`` and synchronize only at window boundaries
    (the global :meth:`EngineChecker.on_cycle_start` seam).  Legal only
    when every cross-shard interaction goes through a
    :class:`~repro.sim.shard.ShardChannel` with ``latency >=
    lookahead`` — then a message sent inside a window delivers at or
    after the window end, so no shard can observe another mid-window.
    Delivery happens via :class:`~repro.sim.shard.ChannelEndpoint`
    modules at exact ``(cycle, rank)`` slots, which is why the windowed
    schedule is provably identical to the serial one.  Direct
    cross-shard wakes in this mode raise
    :class:`~repro.errors.ShardSyncError` (the runtime counterpart of
    static rule SH501).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CycleBudgetExceeded, ShardSyncError, SimulationError
from repro.sim.engine import ClockedModule, Engine, EngineChecker
from repro.sim.shard import ChannelEndpoint, ShardChannel, ShardPlan

MODES = ("lockstep", "windowed")


class _ShardForwarder(EngineChecker):
    """Per-shard checker that forwards tick-level callbacks globally.

    Each shard engine carries one of these; it relays
    ``on_schedule``/``on_wake``/``on_tick``/``on_tick_end`` to whatever
    checker is attached to the owning :class:`ShardedEngine` *at call
    time* (so late ``attach_checker`` works), and drops
    ``on_add``/``on_cycle_start``/``on_run_end`` — those are global
    events the coordinator owns and fires exactly once.
    """

    def __init__(self, owner: "ShardedEngine") -> None:
        self._owner = owner

    def on_schedule(self, module: ClockedModule, cycle: int, now: int) -> None:
        checker = self._owner.checker
        if checker is not None:
            checker.on_schedule(module, cycle, now)

    def on_wake(self, module: ClockedModule, cycle: int, now: int) -> None:
        checker = self._owner.checker
        if checker is not None:
            checker.on_wake(module, cycle, now)

    def on_tick(self, module: ClockedModule, cycle: int, rank: int) -> None:
        checker = self._owner.checker
        if checker is not None:
            checker.on_tick(module, cycle, rank)

    def on_tick_end(self, module: ClockedModule, cycle: int) -> None:
        checker = self._owner.checker
        if checker is not None:
            checker.on_tick_end(module, cycle)


@dataclass
class ShardStats:
    """Run accounting the CLI and bench artifacts report."""

    mode: str = "lockstep"
    plan: str = ""
    lookahead: int = 1
    ticks: Dict[str, int] = field(default_factory=dict)
    windows: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0

    def merge_channel(self, channel: ShardChannel) -> None:
        self.messages_sent += channel.sent
        self.messages_delivered += channel.delivered

    def describe(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "plan": self.plan,
            "lookahead": self.lookahead,
            "shards": dict(self.ticks),
            "windows": self.windows,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
        }


class ShardedEngine:
    """Engine-compatible coordinator over per-shard :class:`Engine` s.

    See the module docstring for the two modes and their equivalence
    arguments.  Construction mirrors ``Engine(allow_jump, start_cycle)``
    with the plan prepended; shard engines are created eagerly in plan
    order so their identity and iteration order are deterministic.
    """

    def __init__(
        self,
        plan: ShardPlan,
        allow_jump: bool = True,
        start_cycle: int = 0,
        *,
        mode: str = "lockstep",
        lookahead: int = 1,
    ) -> None:
        if mode not in MODES:
            raise SimulationError(
                f"unknown sharded engine mode {mode!r} (expected one of {MODES})"
            )
        if lookahead < 1:
            raise SimulationError(
                f"lookahead must be >= 1 cycle (got {lookahead})"
            )
        self.plan = plan
        self.mode = mode
        self.lookahead = lookahead
        self.allow_jump = allow_jump
        self.cycle = start_cycle
        self.checker: Optional[EngineChecker] = None
        self._forwarder = _ShardForwarder(self)
        self._engines: Dict[str, Engine] = {}
        for shard in plan.shards:
            engine = Engine(allow_jump=allow_jump, start_cycle=start_cycle)
            engine.attach_checker(self._forwarder)
            self._engines[shard] = engine
        self._owner: Dict[ClockedModule, str] = {}
        self._modules: List[ClockedModule] = []
        self._next_rank = 0
        self._channels: List[ShardChannel] = []
        self._running_shard: Optional[str] = None
        self.stats = ShardStats(
            mode=mode, plan=plan.name, lookahead=lookahead,
            ticks={shard: 0 for shard in plan.shards},
        )

    # ------------------------------------------------------------------
    # Engine-compatible surface

    def attach_checker(self, checker: EngineChecker) -> None:
        self.checker = checker

    def add(
        self, module: ClockedModule, start_cycle: int = 0,
        rank: Optional[int] = None,
    ) -> None:
        """Register ``module`` on the shard the plan assigns it to.

        Ranks are assigned in global registration order (across shards),
        so same-cycle tie-breaking matches a serial engine that saw the
        identical ``add`` sequence.
        """
        if module in self._owner:
            raise SimulationError(
                f"module {module.name!r} is already registered with this engine"
            )
        shard = self.plan.shard_for_module(module)
        engine = self._engines[shard]
        if rank is None:
            rank = self._next_rank
        self._next_rank = max(self._next_rank, rank) + 1
        self._owner[module] = shard
        self._modules.append(module)
        if isinstance(module, ChannelEndpoint):
            module.attach_engine(self)
            if module.channel not in self._channels:
                self.register_channel(module.channel)
        if self.checker is not None:
            self.checker.on_add(module, start_cycle)
        engine.add(module, start_cycle, rank=rank)

    def wake(self, module: ClockedModule, cycle: int) -> None:
        shard = self._owner.get(module)
        if shard is None:
            raise SimulationError(
                f"cannot wake module {module.name!r}: it was never registered "
                f"with this engine via add()"
            )
        if (
            self.mode == "windowed"
            and self._running_shard is not None
            and shard != self._running_shard
        ):
            raise ShardSyncError(
                f"direct cross-shard wake of {module.name!r} (shard {shard!r}) "
                f"from shard {self._running_shard!r} during a window — "
                f"cross-shard communication must go through a ShardChannel "
                f"with latency >= the lookahead ({self.lookahead})"
            )
        engine = self._engines[shard]
        # Sync the target shard's clock to the global clock first, so the
        # wake-before-now clamp uses the same "now" a serial engine would.
        if engine.cycle < self.cycle:
            engine.cycle = self.cycle
        engine.wake(module, cycle)

    @property
    def modules(self) -> List[ClockedModule]:
        return list(self._modules)

    # ------------------------------------------------------------------
    # sharded extras

    def shard_of(self, module: ClockedModule) -> Optional[str]:
        return self._owner.get(module)

    def register_channel(self, channel: ShardChannel) -> None:
        """Declare a cross-shard channel this engine coordinates."""
        if channel not in self._channels:
            self._channels.append(channel)

    def shard_info(self) -> Dict[str, object]:
        """Per-shard framing for guard checkpoint metadata."""
        return {
            "count": len(self._engines),
            "mode": self.mode,
            "plan": self.plan.name,
            "names": list(self._engines),
            "clocks": {name: eng.cycle for name, eng in self._engines.items()},
        }

    # ------------------------------------------------------------------
    # dispatch

    def run(self, max_cycles: int = 1_000_000_000) -> int:
        """Run until every shard drains; return the final cycle.

        Same termination contract as :meth:`Engine.run`: raises
        :class:`CycleBudgetExceeded` past ``max_cycles`` and
        :class:`SimulationError` if any module goes idle with work
        outstanding.
        """
        if self.mode == "windowed":
            last_cycle = self._run_windowed(max_cycles)
        else:
            last_cycle = self._run_lockstep(max_cycles)
        for module in self._modules:
            if not module.is_done():
                raise SimulationError(
                    f"module {module.name!r} went idle with work outstanding"
                )
        self.cycle = last_cycle
        for channel in self._channels:
            self.stats.merge_channel(channel)
        if self.checker is not None:
            self.checker.on_run_end(last_cycle)
        return last_cycle

    def _run_lockstep(self, max_cycles: int) -> int:
        named = list(self._engines.items())
        for channel in self._channels:
            endpoint = channel.endpoint
            if endpoint is not None:
                channel.bind_wakeup(
                    lambda deliver, _e=endpoint: self.wake(_e, deliver)
                )
        ticks = self.stats.ticks
        last_cycle = self.cycle
        while True:
            best: Optional[Tuple[int, int, ClockedModule]] = None
            best_name = ""
            best_engine: Optional[Engine] = None
            for name, engine in named:
                peeked = engine.peek_next()
                if peeked is not None and (
                    best is None or (peeked[0], peeked[1]) < (best[0], best[1])
                ):
                    best, best_name, best_engine = peeked, name, engine
            if best is None:
                break
            cycle = best[0]
            if cycle > max_cycles:
                raise CycleBudgetExceeded(max_cycles, cycle, best[2].name)
            if cycle > self.cycle:
                # Global cycle boundary: every tick below ``cycle`` on
                # every shard has completed (this is the globally minimal
                # pending event), so the snapshot is consistent.
                checker = self.checker
                if checker is not None:
                    checker.on_cycle_start(cycle)
            self.cycle = cycle
            best_engine.tick_once()
            ticks[best_name] = ticks.get(best_name, 0) + 1
            last_cycle = cycle
        return last_cycle

    def _run_windowed(self, max_cycles: int) -> int:
        lookahead = self.lookahead
        named = list(self._engines.items())
        channels_into: Dict[str, List[ShardChannel]] = {n: [] for n, _ in named}
        cross_channels: List[ShardChannel] = []
        for channel in self._channels:
            endpoint = channel.endpoint
            if endpoint is None:
                continue
            shard = self._owner.get(endpoint)
            if shard is None:
                raise SimulationError(
                    f"channel {channel.name!r} endpoint is not registered "
                    f"with this engine"
                )
            if channel.src_shard != "?" and channel.src_shard == shard:
                # Intra-shard channel: sender and endpoint share an engine,
                # so deliveries never cross a window boundary — keep the
                # per-send wake live (unknown senders are treated as
                # cross-shard, which is the conservative direction).
                engine = self._engines[shard]
                channel.bind_wakeup(
                    lambda deliver, _e=endpoint, _g=engine: _g.wake(_e, deliver)
                )
                continue
            if channel.latency < lookahead:
                raise ShardSyncError(
                    f"channel {channel.name!r} has latency {channel.latency} "
                    f"below the lookahead window ({lookahead}); a message "
                    f"could arrive mid-window and break bit-equivalence"
                )
            channel.unbind()
            channels_into[shard].append(channel)
            cross_channels.append(channel)
        last_cycle = self.cycle
        while True:
            boundary: Optional[int] = None
            boundary_name = ""
            for _name, engine in named:
                peeked = engine.peek_next()
                if peeked is not None and (
                    boundary is None or peeked[0] < boundary
                ):
                    boundary, boundary_name = peeked[0], peeked[2].name
            for channel in cross_channels:
                deliver = channel.next_delivery()
                if deliver is not None and (
                    boundary is None or deliver < boundary
                ):
                    boundary = deliver
                    endpoint = channel.endpoint
                    boundary_name = endpoint.name if endpoint else channel.name
            if boundary is None:
                break
            if boundary > max_cycles:
                raise CycleBudgetExceeded(max_cycles, boundary, boundary_name)
            if boundary > self.cycle:
                # The cross-shard synchronization seam: all shards have
                # fully executed every cycle below ``boundary``.
                checker = self.checker
                if checker is not None:
                    checker.on_cycle_start(boundary)
            self.cycle = boundary
            window_end = boundary + lookahead
            self.stats.windows += 1
            for name, engine in named:
                # Sync a lagging shard clock to the boundary: nothing can
                # be pending below it, and arming wakes must clamp against
                # the same "now" a serial engine would use.
                if engine.cycle < boundary:
                    engine.cycle = boundary
                for channel in channels_into[name]:
                    deliver = channel.next_delivery()
                    if deliver is not None and deliver < window_end:
                        engine.wake(channel.endpoint, deliver)
                self._running_shard = name
                try:
                    last = engine.run_until(window_end, max_cycles=max_cycles)
                finally:
                    self._running_shard = None
                if last is not None and last > last_cycle:
                    last_cycle = last
        return last_cycle
