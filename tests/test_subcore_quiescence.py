"""The quiescence horizon and the single-pass issue path are bit-invisible.

``SMCore.tick`` skips a sub-core whose last tick proved that nothing but
counters can change before ``quiet_until``, and replays that tick's
counts and wake instead; ``SubCore._dispatch`` books an accepted
instruction inline.  ``subcore_reference.py`` keeps the code both
replaced — tick all four sub-cores, re-scan every time, issue through
the helper chain — and this suite holds the live classes to it:

* the same module ticks at the same cycles, the same kernel boundaries
  and **every** counter equal (tick-observer ones included: a skipped
  sub-core still counts the ``idle_cycles``, waits and front-end idles
  its tick would have), for three tiers x six apps x three scheduling
  policies x both clockings;
* at every cycle boundary, no quiet sub-core holds a warp that is
  visible and issuable, under accel-like and a mixed plan;
* the saving is where it is claimed: sub-core ticks, counted, not timed;
* ``SubCore.invariants`` catches a horizon that hides an issuable warp.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import get_preset
from repro.check.shadow import compare_results
from repro.core.block_scheduler import BlockScheduler
from repro.core.fetch import NO_FETCH
from repro.core.sm import SMCore
from repro.core.subcore import SubCore
from repro.core.warp import NEVER, WarpStatus
from repro.errors import InvariantViolation
from repro.frontend.isa import InstKind
from repro.frontend.trace import (
    ApplicationTrace, BlockTrace, KernelTrace, TraceInstruction,
)
from repro.guard import GuardConfig, InvariantGuard, SimulationGuard
from repro.sim.engine import Engine, EngineChecker
from repro.sim.plan import SWIFT_BASIC_PLAN
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.base import PlanSimulator
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import alu, coalesced_addrs, load, make_tiny_gpu, make_warp, store
from subcore_reference import ReferenceSubCore, reference_cores

SIMULATORS = (AccelSimLike, SwiftSimBasic, SwiftSimMemory)
#: gemm, bfs, sm, lstm + barrier-heavy corr + multi-kernel backprop.
APPS = ("gemm", "bfs", "sm", "lstm", "corr", "backprop")
POLICIES = ("GTO", "LRR", "TWO_LEVEL")
NOTHING_IGNORED = frozenset()


def gpu_with_policy(policy):
    gpu = make_tiny_gpu()
    return replace(gpu, sm=replace(gpu.sm, scheduler_policy=policy))


class TickLog(EngineChecker):
    """Which module ticked at which cycle, in order."""

    def __init__(self):
        self.ticks = []

    def on_tick(self, module, cycle, rank):
        self.ticks.append((cycle, module.name))


def run_logged(simulator, app, **kwargs):
    log = TickLog()
    return simulator.simulate(app, checker=log, **kwargs), log.ticks


def assert_matches_reference(subject, make_simulator, app, **kwargs):
    live, live_ticks = run_logged(make_simulator(), app, **kwargs)
    with reference_cores():
        reference, reference_ticks = run_logged(make_simulator(), app, **kwargs)
    findings = compare_results(subject, live, reference,
                               ignore_counters=NOTHING_IGNORED,
                               labels=("live", "reference"))
    assert not findings, "\n".join(f.message for f in findings)
    assert live_ticks == reference_ticks, f"{subject}: engine schedule differs"
    return live


# ----------------------------------------------------------------------
# equivalence with the frozen reference


@pytest.mark.parametrize("allow_jump", (True, False), ids=("jump", "per-cycle"))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("simulator_cls", SIMULATORS, ids=lambda cls: cls.__name__)
def test_bit_identical_to_tick_all_four(simulator_cls, app_name, policy, allow_jump):
    gpu = gpu_with_policy(policy)
    assert_matches_reference(
        f"{simulator_cls.__name__} x {app_name} x {policy}",
        lambda: simulator_cls(gpu), make_app(app_name, scale="tiny"),
        engine_allow_jump=allow_jump,
    )


def test_reference_is_the_reference():
    """The swap really assembles the frozen classes (and undoes itself)."""
    seen = []

    class Spy(EngineChecker):
        def on_add(self, module, start_cycle):
            seen.extend(type(sub) for sub in getattr(module, "subcores", ()))

    app = make_app("sm", scale="tiny")
    with reference_cores():
        SwiftSimBasic(make_tiny_gpu()).simulate(app, checker=Spy())
    assert seen and set(seen) == {ReferenceSubCore}
    del seen[:]
    SwiftSimBasic(make_tiny_gpu()).simulate(app, checker=Spy())
    assert seen and set(seen) == {SubCore}


# ----------------------------------------------------------------------
# no quiet sub-core hides an issuable warp


class QuietWatch(EngineChecker):
    """At every cycle boundary, look at each quiet sub-core's warps."""

    def __init__(self):
        self.subcores = []
        self.quiet_seen = 0
        self.quiet_on_a_callback = 0
        self.quiet_while_busy = 0
        self.hidden_issuable = []

    def on_add(self, module, start_cycle):
        self.subcores.extend(getattr(module, "subcores", ()))

    def on_cycle_start(self, cycle):
        for subcore in self.subcores:
            if subcore.quiet_until <= cycle:
                continue
            self.quiet_seen += 1
            self.quiet_while_busy += any(
                unit.busy for unit in subcore._pipelined_units)
            on_a_callback = False
            for warp in subcore.warps:
                if warp.status is not WarpStatus.ACTIVE or warp.ready_cycle > cycle:
                    continue
                if subcore.frontend is not None and not warp.ibuffer:
                    continue  # not visible: nothing decoded to issue
                inst = warp.trace.instructions[warp.pc_index]
                if inst.kind in (InstKind.BARRIER, InstKind.MEMBAR, InstKind.EXIT):
                    issuable = warp.drained(cycle)
                    on_a_callback |= warp.drain_cycle() is None
                else:
                    ready = warp.scoreboard.ready_cycle(inst)
                    issuable = ready is not None and ready <= cycle
                    on_a_callback |= ready is None
                if issuable:
                    self.hidden_issuable.append((cycle, subcore.name, warp.slot))
            self.quiet_on_a_callback += on_a_callback


MIXED_PLAN = SWIFT_BASIC_PLAN.with_choice("memory", "cycle_accurate", name="mixed")

QUIET_RUNS = {
    "accel-like-gemm": (lambda: AccelSimLike(make_tiny_gpu()), "gemm"),
    "accel-like-bfs": (lambda: AccelSimLike(make_tiny_gpu()), "bfs"),
    "mixed-bfs": (lambda: PlanSimulator(make_tiny_gpu(), plan=MIXED_PLAN), "bfs"),
    "mixed-backprop": (
        lambda: PlanSimulator(make_tiny_gpu(), plan=MIXED_PLAN), "backprop"),
}


@pytest.mark.parametrize("run", sorted(QUIET_RUNS))
def test_no_quiet_subcore_hides_an_issuable_warp(run):
    """A sub-core goes quiet through callback waits (``DetailedLDSTUnit``
    answers by callback), busy pipelined units and in-flight fetches,
    and never past a warp that is visible and issuable; the runs still
    equal the reference."""
    make, app_name = QUIET_RUNS[run]
    app = make_app(app_name, scale="tiny")
    assert_matches_reference(run, make, app)
    watch = QuietWatch()
    make().simulate(app, checker=watch)
    assert watch.subcores and watch.quiet_seen > 0, "never went quiet: vacuous"
    assert watch.quiet_on_a_callback > 0, "no quiet stretch on a callback"
    if run.startswith("accel-like"):
        assert watch.quiet_while_busy > 0, "no quiet stretch with a busy unit"
    assert not watch.hidden_issuable


# ----------------------------------------------------------------------
# work counts (machine-independent)


def count_subcore_ticks(monkeypatch, cls, simulator, app, gather_metrics=False):
    calls = [0]
    tick = cls.tick

    def counting(self, cycle):
        calls[0] += 1
        return tick(self, cycle)

    monkeypatch.setattr(cls, "tick", counting)
    result = simulator.simulate(app, gather_metrics=gather_metrics)
    monkeypatch.setattr(cls, "tick", tick)
    return calls[0], result if gather_metrics else result.instructions


def test_basic_ticks_a_subcore_at_most_twice_per_instruction(monkeypatch):
    """Tick-all-four spent 4.0 sub-core ticks per SM tick (3.9 per
    committed instruction on this app); what is left is the tick that
    issues and the one scan that proves the silence after it."""
    app = make_app("adi", scale="small")
    ticks, instructions = count_subcore_ticks(
        monkeypatch, SubCore, SwiftSimBasic(make_tiny_gpu()), app)
    assert instructions == 14400
    assert ticks <= 2 * instructions
    with reference_cores():
        reference_ticks, __ = count_subcore_ticks(
            monkeypatch, ReferenceSubCore, SwiftSimBasic(make_tiny_gpu()), app)
    assert reference_ticks > 3 * instructions


def test_accel_like_subcore_ticks_are_pinned(monkeypatch):
    """Per-cycle sub-cores go quiet too: a tick that changed nothing but
    counters is replayed, not repeated, until a known cycle or an event."""
    app = make_app("gemm", scale="tiny")
    ticks, __ = count_subcore_ticks(
        monkeypatch, SubCore, AccelSimLike(make_tiny_gpu()), app)
    with reference_cores():
        reference_ticks, __ = count_subcore_ticks(
            monkeypatch, ReferenceSubCore, AccelSimLike(make_tiny_gpu()), app)
    assert (ticks, reference_ticks) == (2379, 5644)


#: (live, reference) accel-like sub-core ticks at ``small`` on the
#: RTX 2080 Ti preset: the benchmark's cycle-accurate-compute apps.
COMPUTE_FOUR_TICKS = {
    "gemm": (20890, 37620),
    "2mm": (28508, 53736),
    "lstm": (14849, 63072),
    "sm": (25560, 38928),
}


@pytest.mark.parametrize("app_name", sorted(COMPUTE_FOUR_TICKS))
def test_accel_like_subcore_ticks_on_the_compute_four(monkeypatch, app_name):
    """Counted on a full preset, where a sub-core holds several warps and
    their fetches compete; every counter still equals the reference's."""
    app = make_app(app_name, scale="small")
    gpu = get_preset("rtx2080ti")
    ticks, live = count_subcore_ticks(
        monkeypatch, SubCore, AccelSimLike(gpu), app, gather_metrics=True)
    with reference_cores():
        reference_ticks, reference = count_subcore_ticks(
            monkeypatch, ReferenceSubCore, AccelSimLike(gpu), app,
            gather_metrics=True)
    findings = compare_results(app_name, live, reference,
                               ignore_counters=NOTHING_IGNORED,
                               labels=("live", "reference"))
    assert not findings, "\n".join(f.message for f in findings)
    assert (ticks, reference_ticks) == COMPUTE_FOUR_TICKS[app_name]


# ----------------------------------------------------------------------
# the run-time guard


def guarded(simulator, app, gpu):
    guard = SimulationGuard(
        GuardConfig(invariants=True, check_every=1),
        app_name=app.name, simulator_name=simulator.name, gpu_config=gpu,
    )
    return simulator.simulate(app, guard=guard)


def test_invariant_reports_a_horizon_that_hides_a_candidate():
    """Sabotage: declare a sub-core silent while its warp can issue."""
    gpu = make_tiny_gpu()
    simulator = SwiftSimBasic(gpu)
    warp = make_warp([alu(0, 40), alu(16, 41, srcs=(40,))])
    scheduler = BlockScheduler(KernelTrace("k", [BlockTrace(0, [warp])]))
    sm = SMCore(0, gpu, scheduler, simulator._subcore_factory(simulator._build_memory()))
    engine = Engine()
    sm.attach_engine(engine)
    engine.add(sm)
    guard = InvariantGuard(engine, check_every=1)
    assert sm.tick(0) == 1          # adopts the warp, issues r40
    subcore = sm.subcores[0]
    wake = sm.tick(1)               # r41 waits for r40: proved silent
    assert subcore.quiet_until == wake > 2
    guard.check_now(2)              # an honest horizon passes
    assert subcore.invariants(wake) == []   # the horizon is over: no claim
    subcore.quiet_until = NEVER
    guard.check_now(wake - 1)       # still honest: r40 is not back yet
    with pytest.raises(InvariantViolation, match=r"quiet until cycle .* can issue IADD3"):
        guard.check_now(wake)


def test_each_clearing_event_ends_the_horizon():
    """adopt, a barrier release (from a sibling sub-core), on_complete,
    remove_block_warps and reset() each put ``quiet_until`` back to 0."""
    gpu = make_tiny_gpu()
    simulator = SwiftSimBasic(gpu)
    barrier = TraceInstruction(32, "BAR.SYNC")
    early = make_warp([barrier, alu(48, 42)], warp_id=0)
    late = make_warp([alu(0, 40), alu(16, 41, srcs=(40,)), barrier, alu(48, 42)],
                     warp_id=1)
    scheduler = BlockScheduler(KernelTrace("k", [BlockTrace(0, [early, late])]))
    sm = SMCore(0, gpu, scheduler, simulator._subcore_factory(simulator._build_memory()))
    first, second = sm.subcores[0], sm.subcores[1]
    first.quiet_until = second.quiet_until = NEVER
    cycle = sm.tick(0)                      # adopt clears; both warps issue
    parked = first.warps[0]
    assert parked.status is WarpStatus.AT_BARRIER
    cycle = sm.tick(cycle)
    assert first.quiet_until == NEVER       # nothing here until a release
    while parked.status is WarpStatus.AT_BARRIER:
        assert first.quiet_until == NEVER
        cycle = sm.tick(cycle)              # first is skipped, second ticks
    assert first.quiet_until == 0           # released from the sibling
    first.quiet_until = second.quiet_until = NEVER
    parked.scoreboard.reserve((7,), None)
    parked.inflight_count = 1
    first.on_complete(parked, TraceInstruction(
        64, "LDG", dest_regs=(7,), addresses=tuple(coalesced_addrs())), cycle)
    assert (first.quiet_until, second.quiet_until) == (0, NEVER)
    first.quiet_until = NEVER
    first.remove_block_warps(parked.block)
    assert first.quiet_until == 0 and not first.warps
    first.quiet_until = NEVER
    first.reset()
    assert first.quiet_until == 0


def test_a_tick_that_starts_a_fetch_is_not_quiet():
    """Two warps wait on callbacks with half-empty i-buffers.  The front
    end starts one fetch per cycle, so the tick that starts the first
    must not go quiet: the next one starts the second."""
    gpu = make_tiny_gpu()
    gpu = replace(gpu, sm=replace(gpu.sm, sub_cores=1))
    simulator = AccelSimLike(gpu)
    program = [load(0, 10, coalesced_addrs()), alu(16, 20, srcs=(10,))]
    block = BlockTrace(0, [make_warp(program, warp_id=w) for w in range(2)])
    sm = SMCore(0, gpu, BlockScheduler(KernelTrace("k", [block])),
                simulator._subcore_factory(simulator._build_memory()))
    subcore = sm.subcores[0]
    sm.tick(0)                              # adopts both, fetches in flight
    round_trip = gpu.sm.fetch_latency + gpu.sm.decode_latency
    assert subcore.quiet_until == round_trip
    for warp in subcore.warps:              # each issued its LDG long ago
        warp.pc_index = 1
        warp.scoreboard.reserve((10,), None)
        warp.inflight_count = 1
        warp.ibuffer = gpu.sm.ibuffer_entries // 2
        warp.refill_at = NO_FETCH
    subcore.quiet_until = 0
    sm.tick(1)                              # starts warp 0's fetch
    assert subcore.quiet_until <= 2
    sm.tick(2)                              # starts warp 1's fetch
    assert [warp.refill_at for warp in subcore.warps] == [
        1 + round_trip, 2 + round_trip]
    sm.tick(3)                              # quiet until the first landing
    assert subcore.quiet_until == 1 + round_trip


OPCODES = ("IADD3", "FFMA", "MUFU.SIN", "DFMA", "LDG", "STG", "LDS",
           "BRA", "MEMBAR", "BAR.SYNC")


@st.composite
def tiny_kernels(draw):
    """One kernel of 1-3 blocks; the warps of a block share an opcode
    sequence (so barrier counts agree) and draw their own registers."""
    blocks = []
    for block_id in range(draw(st.integers(1, 3))):
        opcodes = draw(st.lists(st.sampled_from(OPCODES), min_size=1, max_size=12))
        warps = []
        for warp_id in range(draw(st.integers(1, 6))):
            insts = []
            for index, opcode in enumerate(opcodes):
                pc = 16 * index
                dest = 8 + draw(st.integers(0, 5))
                srcs = tuple(8 + s for s in draw(st.lists(st.integers(0, 5), max_size=2)))
                base = 0x10000 + 0x400 * draw(st.integers(0, 7))
                if opcode == "LDG":
                    insts.append(load(pc, dest, coalesced_addrs(base)))
                elif opcode == "STG":
                    insts.append(store(pc, dest, coalesced_addrs(base)))
                elif opcode == "LDS":
                    insts.append(TraceInstruction(
                        pc, "LDS", dest_regs=(dest,),
                        addresses=tuple(coalesced_addrs(base % 0x1000))))
                elif opcode in ("BRA", "MEMBAR", "BAR.SYNC"):
                    insts.append(TraceInstruction(pc, opcode))
                else:
                    insts.append(alu(pc, dest, srcs, opcode=opcode))
            warps.append(make_warp(insts, warp_id=warp_id))
        blocks.append(BlockTrace(block_id, warps))
    return ApplicationTrace("random", [KernelTrace("random_kernel", blocks)])


@settings(max_examples=40, deadline=None)
@given(app=tiny_kernels(), policy=st.sampled_from(POLICIES),
       simulator_cls=st.sampled_from(SIMULATORS))
def test_random_kernels_keep_the_horizon_honest(app, policy, simulator_cls):
    """Checked at every cycle boundary: no quiet sub-core holds an
    issuable warp; and the run still equals the reference."""
    gpu = gpu_with_policy(policy)
    guarded(simulator_cls(gpu), app, gpu)
    assert_matches_reference("random kernel", lambda: simulator_cls(gpu), app)
