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

:func:`run_sharded_processes` runs the windowed protocol with one
worker *process* per shard: each worker builds its shard from an
importable builder, windows execute concurrently, and cross-shard
messages are exchanged at barriers keyed by their sender-side
``(deliver, seq)`` — preserving the exact delivery order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CycleBudgetExceeded,
    ShardCrash,
    ShardHang,
    ShardSyncError,
    SimulationError,
)
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
        #: Optional fault-injection hook consulted at every global cycle
        #: boundary — the same consistent cut the checker seam uses.  A
        #: supervised run (:mod:`repro.sim.shardfault`) installs a
        #: callable that raises :class:`~repro.errors.ShardFault` at its
        #: chaos-chosen boundary; pure observation otherwise, so the
        #: schedule is untouched when no fault fires.
        self.fault_injector: Optional[Callable[[int], None]] = None
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

    @property
    def engines(self) -> Dict[str, Engine]:
        """Per-shard engines, in plan order (read-only view)."""
        return dict(self._engines)

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
                if self.fault_injector is not None:
                    self.fault_injector(cycle)
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
                if self.fault_injector is not None:
                    self.fault_injector(boundary)
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


# ----------------------------------------------------------------------
# multiprocess windowed runner


@dataclass
class ShardBuild:
    """What one worker needs to host its shard.

    ``modules`` lists ``(module, start_cycle, global_rank)`` in global
    registration order; ``channels_in`` are cross-shard channels whose
    endpoint lives on this shard (the endpoint must appear in
    ``modules``); ``channels_out`` are send-side stubs whose queued
    messages the worker drains and ships at each window boundary;
    ``channels_local`` are fully intra-shard channels the worker binds
    straight to its engine.
    """

    modules: List[Tuple[ClockedModule, int, int]] = field(default_factory=list)
    channels_in: Dict[str, ShardChannel] = field(default_factory=dict)
    channels_out: Dict[str, ShardChannel] = field(default_factory=dict)
    channels_local: Dict[str, ShardChannel] = field(default_factory=dict)


@dataclass
class ProcessRunOutcome:
    """Result of a :func:`run_sharded_processes` run."""

    final_cycle: int
    counters: Dict[str, Dict[str, int]]
    windows: int
    messages: int
    shard_cycles: Dict[str, int] = field(default_factory=dict)


#: Exit code a chaos-killed shard worker dies with (mirrors the
#: resilience supervisor's ``CRASH_EXIT_CODE`` so post-mortems read the
#: same either way; duplicated here to keep ``repro.sim`` free of a
#: ``repro.resilience`` import).
SHARD_CRASH_EXIT = 73


def reap_worker(proc, join_timeout: float = 5.0) -> None:
    """Terminate a worker process without ever leaking it.

    ``terminate()`` sends SIGTERM, which a wedged or signal-ignoring
    worker can outlive; if the follow-up ``join`` times out the reap
    escalates to ``kill()`` (SIGKILL, non-ignorable) and re-joins, so
    the caller's ``finally`` block always returns with the process dead.
    """
    if proc is None:
        return
    proc.terminate()
    proc.join(timeout=join_timeout)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=join_timeout)


def recv_bounded(parent, proc, shard: str, timeout: Optional[float],
                  phase: str):
    """Receive one worker message with death- and deadline-detection.

    A bare ``Connection.recv()`` blocks forever on a hung worker and
    surfaces a dead one as an opaque ``EOFError``.  This polls instead:
    a closed pipe or dead process raises :class:`ShardCrash`, and a
    worker silent past ``timeout`` seconds raises :class:`ShardHang`
    (``timeout=None`` waits indefinitely but still detects death).
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        wait = 0.2
        if deadline is not None:
            wait = max(0.0, min(wait, deadline - time.monotonic()))
        try:
            if parent.poll(wait):
                return parent.recv()
        except (EOFError, OSError):
            raise ShardCrash(
                f"worker pipe closed during {phase}", shard=shard,
            ) from None
        if proc is not None and not proc.is_alive():
            # The worker may have written its reply and exited between
            # polls — drain the pipe once before declaring it dead.
            try:
                if parent.poll(0):
                    return parent.recv()
            except (EOFError, OSError):
                pass
            raise ShardCrash(
                f"worker process died during {phase} "
                f"(exit code {proc.exitcode})",
                shard=shard,
            )
        if deadline is not None and time.monotonic() >= deadline:
            raise ShardHang(
                f"worker silent past its {timeout:.1f}s deadline "
                f"during {phase}",
                shard=shard,
            )


def shard_worker(
    conn,
    builder: Callable[..., ShardBuild],
    builder_args: tuple,
    shard: str,
    allow_jump: bool,
    start_cycle: int,
) -> None:
    """Worker main: host one shard, execute windows on command."""
    try:
        build = builder(*builder_args, shard)
        engine = Engine(allow_jump=allow_jump, start_cycle=start_cycle)
        for module, start, rank in build.modules:
            if isinstance(module, ChannelEndpoint):
                module.attach_engine(engine)
            engine.add(module, start, rank=rank)
        for channel in build.channels_in.values():
            channel.unbind()
        for channel in build.channels_out.values():
            channel.unbind()
        for channel in build.channels_local.values():
            if channel.endpoint is not None:
                channel.bind_wakeup(
                    lambda deliver, _e=channel.endpoint, _g=engine:
                        _g.wake(_e, deliver)
                )
    except Exception as exc:  # ship, don't die silently
        conn.send(("fatal", type(exc).__name__, str(exc)))
        conn.close()
        return

    def next_event() -> Optional[int]:
        peeked = engine.peek_next()
        upcoming = peeked[0] if peeked is not None else None
        for channel in build.channels_in.values():
            deliver = channel.next_delivery()
            if deliver is not None and (upcoming is None or deliver < upcoming):
                upcoming = deliver
        return upcoming

    conn.send(("ready", next_event()))
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "window":
                boundary, window_end, max_cycles, deliveries = message[1:5]
                # A supervised coordinator appends a sixth element: the
                # chaos fault directive for this window (or None).  Its
                # presence also requests a heartbeat, so the supervisor
                # can tell "executing a long window" from "hung".
                supervised = len(message) > 5
                fault = message[5] if supervised else None
                if supervised:
                    conn.send(("heartbeat", boundary))
                if fault is not None:
                    if fault[0] == "kill":
                        conn.close()
                        os._exit(SHARD_CRASH_EXIT)
                    elif fault[0] == "hang":
                        time.sleep(fault[1])
                try:
                    if engine.cycle < boundary:
                        engine.cycle = boundary
                    for name, deliver, seq, payload in deliveries:
                        build.channels_in[name].inject(deliver, seq, payload)
                    for name, channel in build.channels_in.items():
                        deliver = channel.next_delivery()
                        if deliver is not None and deliver < window_end:
                            engine.wake(channel.endpoint, deliver)
                    last = engine.run_until(window_end, max_cycles=max_cycles)
                    outbox = []
                    for name, channel in build.channels_out.items():
                        for deliver, seq, payload in channel.drain():
                            outbox.append((name, deliver, seq, payload))
                    conn.send(("ok", last, next_event(), outbox))
                except CycleBudgetExceeded as exc:
                    conn.send((
                        "budget", exc.budget, exc.cycle, exc.module_name,
                    ))
                except Exception as exc:
                    conn.send(("error", type(exc).__name__, str(exc)))
            elif command == "replay":
                # Recovery path: this is a fresh worker replacing one
                # that died.  Re-inject the shard's entire inbound
                # message history (recorded by the supervisor in its
                # REPROSHCH1 transcript) at the original (deliver, seq)
                # keys and run to the failure boundary — the last
                # window barrier, a globally consistent cut — which
                # reproduces the dead worker's state bit-exactly.
                _, boundary, records, replay_budget = message
                try:
                    for channel in build.channels_in.values():
                        if channel.endpoint is not None:
                            channel.bind_wakeup(
                                lambda deliver, _e=channel.endpoint,
                                _g=engine: _g.wake(_e, deliver)
                            )
                    for name, deliver, seq, payload in records:
                        build.channels_in[name].inject(deliver, seq, payload)
                    engine.run_until(boundary, max_cycles=replay_budget)
                    for channel in build.channels_in.values():
                        channel.unbind()
                    # Everything re-emitted during replay already
                    # crossed the barrier before the crash and lives in
                    # the coordinator's routing state — discard it.
                    for channel in build.channels_out.values():
                        channel.drain()
                    conn.send(("replayed", engine.cycle, next_event()))
                except Exception as exc:
                    conn.send(("error", type(exc).__name__, str(exc)))
            elif command == "finish":
                unfinished = [
                    module.name for module, _s, _r in build.modules
                    if not module.is_done()
                ]
                counters = {}
                for module, _s, _r in build.modules:
                    for walked in module.walk():
                        counters[walked.name] = walked.counters.as_dict()
                conn.send(("done", engine.cycle, counters, unfinished))
                break
            else:  # "stop"
                break
    except (EOFError, OSError):
        pass
    finally:
        conn.close()


def run_sharded_processes(
    builder: Callable[..., ShardBuild],
    builder_args: tuple,
    shards: Sequence[str],
    routes: Dict[str, str],
    *,
    lookahead: int,
    allow_jump: bool = True,
    start_cycle: int = 0,
    max_cycles: int = 1_000_000_000,
    mp_context: Optional[str] = None,
    build_deadline_seconds: Optional[float] = 60.0,
) -> ProcessRunOutcome:
    """Run the windowed protocol with one worker process per shard.

    ``builder(*builder_args, shard_name)`` must be importable (spawn
    contexts pickle it by reference) and return that shard's
    :class:`ShardBuild`; ``routes`` maps each cross-shard channel name
    to the shard that owns its receive side.  Every worker executes the
    same window ``[boundary, boundary + lookahead)`` concurrently;
    messages drained from send stubs are exchanged at the barrier and
    injected with their original ``(deliver, seq)`` keys, so the
    delivery schedule — and therefore every counter — is bit-identical
    to the in-process windowed (and serial) run.

    The build handshake is deadline-bounded: a worker that dies or
    hangs while constructing its :class:`ShardBuild` surfaces a typed
    :class:`~repro.errors.ShardCrash` / :class:`~repro.errors.ShardHang`
    within ``build_deadline_seconds`` instead of blocking the ready
    ``recv()`` forever.  Fault *recovery* is the job of
    :class:`repro.sim.shardfault.ShardSupervisor`, which wraps this
    protocol with per-window heartbeats and transcript replay.
    """
    if lookahead < 1:
        raise SimulationError(f"lookahead must be >= 1 cycle (got {lookahead})")
    unknown = sorted(set(routes.values()) - set(shards))
    if unknown:
        raise SimulationError(
            f"channel routes target unknown shards: {unknown}"
        )
    ctx = multiprocessing.get_context(mp_context)
    workers: Dict[str, Tuple[object, object]] = {}
    in_flight: Dict[str, List[Tuple[str, int, int, object]]] = {
        shard: [] for shard in shards
    }
    next_events: Dict[str, Optional[int]] = {}
    try:
        for shard in shards:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker,
                args=(
                    child, builder, builder_args, shard,
                    allow_jump, start_cycle,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            workers[shard] = (parent, proc)
        for shard, (parent, proc) in workers.items():
            reply = recv_bounded(
                parent, proc, shard, build_deadline_seconds, "shard build",
            )
            if reply[0] != "ready":
                raise SimulationError(
                    f"shard {shard!r} worker failed to build: "
                    f"{reply[1]}: {reply[2]}"
                )
            next_events[shard] = reply[1]

        windows = 0
        messages = 0
        final_cycle = start_cycle
        while True:
            boundary: Optional[int] = None
            for upcoming in next_events.values():
                if upcoming is not None and (
                    boundary is None or upcoming < boundary
                ):
                    boundary = upcoming
            for pending in in_flight.values():
                for _name, deliver, _seq, _payload in pending:
                    if boundary is None or deliver < boundary:
                        boundary = deliver
            if boundary is None:
                break
            if boundary > max_cycles:
                raise CycleBudgetExceeded(max_cycles, boundary, "<sharded>")
            window_end = boundary + lookahead
            windows += 1
            for shard, (parent, _proc) in workers.items():
                due = [
                    msg for msg in in_flight[shard] if msg[1] < window_end
                ]
                in_flight[shard] = [
                    msg for msg in in_flight[shard] if msg[1] >= window_end
                ]
                parent.send(("window", boundary, window_end, max_cycles, due))
            for shard, (parent, proc) in workers.items():
                reply = recv_bounded(
                    parent, proc, shard, None, "window barrier",
                )
                if reply[0] == "budget":
                    raise CycleBudgetExceeded(reply[1], reply[2], reply[3])
                if reply[0] != "ok":
                    raise SimulationError(
                        f"shard {shard!r} failed mid-window: "
                        f"{reply[1]}: {reply[2]}"
                    )
                _tag, last, upcoming, outbox = reply
                next_events[shard] = upcoming
                if last is not None and last > final_cycle:
                    final_cycle = last
                for name, deliver, seq, payload in outbox:
                    dest = routes.get(name)
                    if dest is None:
                        raise SimulationError(
                            f"shard {shard!r} emitted a message on "
                            f"channel {name!r}, which is missing from "
                            f"the route table (routed channels: "
                            f"{sorted(routes)})"
                        )
                    messages += 1
                    in_flight[dest].append(
                        (name, deliver, seq, payload)
                    )
            # Newly exchanged messages can arm shards that reported no
            # upcoming events; the boundary scan above re-reads in_flight.

        counters: Dict[str, Dict[str, int]] = {}
        shard_cycles: Dict[str, int] = {}
        unfinished: List[str] = []
        for shard, (parent, proc) in workers.items():
            parent.send(("finish",))
            reply = recv_bounded(parent, proc, shard, None, "finalize")
            if reply[0] != "done":
                raise SimulationError(
                    f"shard {shard!r} failed to finalize: {reply!r}"
                )
            _tag, shard_cycle, shard_counters, shard_unfinished = reply
            shard_cycles[shard] = shard_cycle
            counters.update(shard_counters)
            unfinished.extend(shard_unfinished)
        if unfinished:
            raise SimulationError(
                f"module(s) {sorted(unfinished)!r} went idle with work "
                f"outstanding"
            )
        return ProcessRunOutcome(
            final_cycle=final_cycle,
            counters=counters,
            windows=windows,
            messages=messages,
            shard_cycles=shard_cycles,
        )
    finally:
        for _shard, (parent, proc) in workers.items():
            try:
                parent.close()
            except OSError:
                pass
            reap_worker(proc)
