"""Unit tests for the scoreboard and warp runtime state."""

import pytest

from repro.core.scoreboard import Scoreboard
from repro.core.warp import BlockRuntime, WarpState, WarpStatus
from repro.errors import SimulationError
from repro.frontend.trace import BlockTrace, TraceInstruction

from conftest import alu, make_warp


class TestScoreboard:
    def test_empty_scoreboard_never_blocks(self):
        sb = Scoreboard()
        assert sb.can_issue(alu(0, 1, (2, 3)), cycle=0)
        assert sb.ready_cycle(alu(0, 1, (2, 3))) == 0

    def test_raw_hazard(self):
        sb = Scoreboard()
        sb.reserve((5,), completion_cycle=100)
        consumer = alu(16, 6, (5,))
        assert not sb.can_issue(consumer, cycle=50)
        assert sb.ready_cycle(consumer) == 100
        assert sb.can_issue(consumer, cycle=100)

    def test_waw_hazard(self):
        sb = Scoreboard()
        sb.reserve((5,), completion_cycle=100)
        overwriter = alu(16, 5, (1,))
        assert not sb.can_issue(overwriter, cycle=50)
        assert sb.can_issue(overwriter, cycle=101)

    def test_unrelated_registers_pass(self):
        sb = Scoreboard()
        sb.reserve((5,), completion_cycle=100)
        assert sb.can_issue(alu(16, 6, (7,)), cycle=0)

    def test_callback_reservation_blocks_until_release(self):
        sb = Scoreboard()
        sb.reserve((5,), completion_cycle=None)
        consumer = alu(16, 6, (5,))
        assert not sb.can_issue(consumer, cycle=10**9)
        assert sb.ready_cycle(consumer) is None
        sb.release((5,))
        assert sb.can_issue(consumer, cycle=0)

    def test_release_unreserved_raises(self):
        with pytest.raises(SimulationError):
            Scoreboard().release((3,))

    def test_ready_cycle_takes_max(self):
        sb = Scoreboard()
        sb.reserve((1,), 50)
        sb.reserve((2,), 80)
        assert sb.ready_cycle(alu(0, 3, (1, 2))) == 80

    def test_all_clear_cycle(self):
        sb = Scoreboard()
        assert sb.all_clear_cycle() == 0
        sb.reserve((1,), 50)
        sb.reserve((2,), 30)
        assert sb.all_clear_cycle() == 50
        sb.reserve((3,), None)
        assert sb.all_clear_cycle() is None

    def test_expire_drops_past_entries(self):
        sb = Scoreboard()
        sb.reserve((1,), 10)
        sb.reserve((2,), 20)
        sb.expire(15)
        assert sb.pending_regs() == (2,)


def make_block_runtime(num_warps=2):
    warps = [make_warp([alu(0, 1)], warp_id=i) for i in range(num_warps)]
    trace = BlockTrace(0, warps)
    runtime = BlockRuntime(trace, sm_id=0)
    for slot, warp_trace in enumerate(trace.warps):
        runtime.warps.append(WarpState(slot, slot, warp_trace, runtime))
    return runtime


class TestWarpState:
    def test_inflight_reservation_tracking(self):
        runtime = make_block_runtime(1)
        warp = runtime.warps[0]
        warp.inflight_max = 50    # booked by the sub-core at issue
        assert not warp.drained(40)
        assert warp.drained(50)
        assert warp.drain_cycle() == 50

    def test_inflight_callback_tracking(self):
        runtime = make_block_runtime(1)
        warp = runtime.warps[0]
        warp.inflight_count += 1  # a PENDING issue; on_complete retires it
        assert not warp.drained(10**9)
        assert warp.drain_cycle() is None
        warp.retire_inflight()
        assert warp.drained(0)

    def test_spurious_retire_raises(self):
        runtime = make_block_runtime(1)
        with pytest.raises(SimulationError):
            runtime.warps[0].retire_inflight()


class TestBarrier:
    def test_last_arrival_releases_all(self):
        runtime = make_block_runtime(3)
        w0, w1, w2 = runtime.warps
        assert not runtime.barrier_arrive(w0, cycle=10)
        assert w0.status is WarpStatus.AT_BARRIER
        assert not runtime.barrier_arrive(w1, cycle=11)
        released = runtime.barrier_arrive(w2, cycle=12)
        assert released
        assert all(w.status is WarpStatus.ACTIVE for w in runtime.warps)
        assert w0.ready_cycle == 13
        assert w1.ready_cycle == 13

    def test_barrier_reusable_across_generations(self):
        runtime = make_block_runtime(2)
        w0, w1 = runtime.warps
        runtime.barrier_arrive(w0, 0)
        runtime.barrier_arrive(w1, 1)
        # Second barrier behaves identically.
        assert not runtime.barrier_arrive(w0, 20)
        assert runtime.barrier_arrive(w1, 21)

    def test_single_warp_block_never_blocks(self):
        runtime = make_block_runtime(1)
        assert runtime.barrier_arrive(runtime.warps[0], 5)
        assert runtime.warps[0].status is WarpStatus.ACTIVE

    def test_warp_done_counting(self):
        runtime = make_block_runtime(2)
        assert not runtime.warp_done()
        assert runtime.warp_done()
        with pytest.raises(SimulationError):
            runtime.warp_done()
