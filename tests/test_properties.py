"""Property-based tests (hypothesis) for core data structures and the
framework's central invariants."""

import random as stdlib_random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.config import CacheConfig
from repro.frontend.trace import TraceInstruction
from repro.frontend.trace_io import parse_trace, save_trace
from repro.memory.access import coalesce, touched_sectors
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.reuse_distance import _LRUStack
from repro.core.scoreboard import Scoreboard
from repro.sim.engine import ClockedModule, EngineChecker
from repro.sim.plan import SWIFT_BASIC_PLAN, SWIFT_MEMORY_PLAN
from repro.simulators.base import PlanSimulator
from repro.tracegen.suites import make_app
from repro.utils.stats import geomean

from conftest import alu, make_tiny_gpu


# ----------------------------------------------------------------------
# Coalescer


addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=32
)


class TestCoalescerProperties:
    @given(addresses_strategy)
    def test_every_address_covered_exactly_once(self, addresses):
        transactions = coalesce(addresses)
        covered = {(tx.line_addr, tx.sector) for tx in transactions}
        assert len(covered) == len(transactions)  # no duplicate sectors
        for addr in addresses:
            key = (addr // 128, (addr // 32) % 4)
            assert key in covered

    @given(addresses_strategy)
    def test_thread_counts_sum_to_addresses(self, addresses):
        transactions = coalesce(addresses)
        assert sum(tx.thread_count for tx in transactions) == len(addresses)

    @given(addresses_strategy)
    def test_transaction_count_bounded(self, addresses):
        transactions = coalesce(addresses)
        assert 1 <= len(transactions) <= len(addresses)

    @given(addresses_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariant_as_set(self, addresses, rng):
        shuffled = list(addresses)
        rng.shuffle(shuffled)
        original = {(t.line_addr, t.sector, t.thread_count) for t in coalesce(addresses)}
        permuted = {(t.line_addr, t.sector, t.thread_count) for t in coalesce(shuffled)}
        assert original == permuted

    @given(addresses_strategy, st.sampled_from([(128, 32), (64, 32), (128, 16)]))
    def test_touched_sectors_are_the_transactions(self, addresses, geometry):
        line_bytes, sector_bytes = geometry
        per_line = line_bytes // sector_bytes
        assert touched_sectors(addresses, sector_bytes) == [
            tx.line_addr * per_line + tx.sector
            for tx in coalesce(addresses, line_bytes, sector_bytes)
        ]


# ----------------------------------------------------------------------
# Sectored cache vs an independent reference model


class _ReferenceCache:
    """Independent set-associative sectored LRU model (functional)."""

    def __init__(self, num_sets, assoc, sectors_per_line):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for __ in range(num_sets)]  # line -> set(sectors)

    def access(self, line, sector):
        """Returns True on hit; always installs (read, fills instant)."""
        index = line % self.num_sets
        cache_set = self.sets[index]
        if line in cache_set:
            sectors = cache_set.pop(line)
            cache_set[line] = sectors  # move to MRU
            if sector in sectors:
                return True
            sectors.add(sector)
            return False
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)  # evict LRU
        cache_set[line] = {sector}
        return False


cache_trace_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=300,
)


class TestCacheAgainstReference:
    @given(cache_trace_strategy)
    @settings(max_examples=60, deadline=None)
    def test_functional_lru_matches_reference(self, accesses):
        config = CacheConfig(
            size_bytes=16 * 128,  # 16 lines
            assoc=4,
            mshr_entries=64,
            replacement="LRU",
        )
        cache = SectoredCache(config, name="dut")
        reference = _ReferenceCache(config.num_sets, config.assoc, 4)
        for line, sector in accesses:
            result = cache.access_functional(line, sector, is_write=False)
            hit = result.status is AccessStatus.HIT
            assert hit == reference.access(line, sector), (line, sector)

    @given(cache_trace_strategy)
    @settings(max_examples=30, deadline=None)
    def test_counters_balance(self, accesses):
        config = CacheConfig(size_bytes=16 * 128, assoc=4, mshr_entries=64)
        cache = SectoredCache(config)
        for line, sector in accesses:
            cache.access_functional(line, sector, is_write=False)
        counted = (
            cache.counters.get("sector_hits")
            + cache.counters.get("sector_misses")
            + cache.counters.get("pending_hits")
        )
        assert counted == cache.counters.get("sector_accesses") == len(accesses)


mixed_trace_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)


class TestFunctionalDriverAgainstTimedReference:
    """``access_functional`` never touches the MSHR or the expiry heap.
    The reference is what it replaced: a timed access at cycle ``n``
    whose fill is reported to land at ``n``, on a second cache."""

    @given(
        st.sampled_from(["LRU", "FIFO", "RANDOM"]),
        st.booleans(),
        mixed_trace_strategy,
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_access_plus_immediate_fill(self, replacement, write_back, accesses):
        config = CacheConfig(
            size_bytes=16 * 128,  # 16 lines
            assoc=4,
            mshr_entries=2,
            replacement=replacement,
            write_back=write_back,
            write_allocate=write_back,
        )
        functional = SectoredCache(config, name="functional", seed=3)
        reference = SectoredCache(config, name="reference", seed=3)
        for cycle, (line, sector, is_write) in enumerate(accesses, start=1):
            got = functional.access_functional(line, sector, is_write)
            want = reference.access(line, sector, is_write, cycle)
            if want.needs_fetch:
                reference.set_fill_cycle(line, sector, cycle)
            assert (
                got.status, got.needs_fetch, got.ready_cycle,
                got.dirty_writeback_sectors,
            ) == (
                want.status, want.needs_fetch, want.ready_cycle,
                want.dirty_writeback_sectors,
            ), (cycle, line, sector, is_write)
            # Probing at ``cycle`` retires the reference's fill, which the
            # functional driver has already counted.
            for probed in range(64):
                assert functional.probe(probed, sector) == reference.probe(
                    probed, sector, cycle=cycle
                ), (cycle, probed, sector)
            assert functional.counters.as_dict() == reference.counters.as_dict()
            assert functional.mshr_occupancy() == 0
            assert functional.invariants(cycle) == []


# ----------------------------------------------------------------------
# Reuse-distance stack


class TestReuseDistanceProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_naive_reference(self, blocks):
        stack = _LRUStack()
        history = []
        for block in blocks:
            measured = stack.access((block, 0))
            if block in history:
                expected = len(history) - history.index(block) - 1
                history.remove(block)
            else:
                expected = None
            history.append(block)
            assert measured == expected

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_universe(self, blocks):
        stack = _LRUStack()
        for block in blocks:
            distance = stack.access((block, 0))
            if distance is not None:
                assert 0 <= distance <= 10


# ----------------------------------------------------------------------
# Scoreboard


class TestScoreboardProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 100)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_can_issue_consistent_with_ready_cycle(self, reservations, probe_cycle):
        scoreboard = Scoreboard()
        for reg, completion in reservations:
            scoreboard.reserve((reg,), completion)
        inst = alu(0, 1, tuple({reg for reg, __ in reservations[:3]}))
        ready = scoreboard.ready_cycle(inst)
        assert ready is not None
        assert scoreboard.can_issue(inst, probe_cycle) == (ready <= probe_cycle)


# ----------------------------------------------------------------------
# Trace round trip


instruction_strategy = st.builds(
    lambda pc, dest, src, mask_bits: TraceInstruction(
        pc * 16,
        "IADD3",
        dest_regs=tuple(dest),
        src_regs=tuple(src),
        active_mask=mask_bits | 1,
    ),
    st.integers(0, 1000),
    st.lists(st.integers(0, 255), max_size=2),
    st.lists(st.integers(0, 255), max_size=3),
    st.integers(0, 0xFFFFFFFF),
)


class TestTraceRoundTripProperties:
    @given(st.lists(instruction_strategy, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_instructions(self, instructions):
        import tempfile
        from pathlib import Path
        from repro.frontend.trace import ApplicationTrace, BlockTrace, KernelTrace, WarpTrace
        instructions = list(instructions) + [
            TraceInstruction(len(instructions) * 16 + 16000, "EXIT")
        ]
        app = ApplicationTrace(
            "prop", [KernelTrace("k", [BlockTrace(0, [WarpTrace(0, instructions)])])]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.trace"
            save_trace(app, path)
            reloaded = parse_trace(path.read_text(), source=str(path))
        assert reloaded.kernels[0].blocks[0].warps[0].instructions == instructions


# ----------------------------------------------------------------------
# Stats


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
    def test_geomean_between_min_and_max(self, values):
        result = geomean(values)
        assert min(values) * 0.999 <= result <= max(values) * 1.001

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_geomean_scales_linearly(self, values, factor):
        scaled = geomean([v * factor for v in values])
        assert scaled == pytest.approx(geomean(values) * factor, rel=1e-6)


# ----------------------------------------------------------------------
# Engine equivalence on arbitrary module populations


class _AlarmModule:
    """Performs 'work' at predetermined cycles; safe to tick early."""

    def __init__(self, name, alarms):
        from repro.sim.engine import ClockedModule

        alarms = sorted(set(alarms))

        class _Impl(ClockedModule):
            def __init__(inner):
                super().__init__(name)
                inner.alarms = list(alarms)
                inner.work_log = []

            def tick(inner, cycle):
                while inner.alarms and inner.alarms[0] <= cycle:
                    inner.work_log.append(inner.alarms.pop(0))
                if inner.alarms:
                    return inner.alarms[0]
                return None

            def is_done(inner):
                return not inner.alarms

        self.impl = _Impl()


class _PokingModule(ClockedModule):
    """Works at its alarm cycles and, at each, wakes a peer mid-tick.
    Safe to tick early: a spurious tick just reports the next alarm."""

    def __init__(self, name, schedule, engine, ticks):
        super().__init__(name)
        self.pokes = {}
        for alarm, peer, delay in schedule:
            self.pokes.setdefault(alarm, (peer, delay))
        self.alarms = sorted(self.pokes)
        self.engine = engine
        self.ticks = ticks
        self.peers = []

    def tick(self, cycle):
        self.ticks.append((cycle, self.name))
        while self.alarms and self.alarms[0] <= cycle:
            peer, delay = self.pokes[self.alarms.pop(0)]
            self.engine.wake(self.peers[peer % len(self.peers)], cycle + delay)
        return self.alarms[0] if self.alarms else None

    def is_done(self):
        return not self.alarms


class _RecordingChecker(EngineChecker):
    def __init__(self):
        self.cycle_starts = []
        self.ticks = []
        self.run_ends = []

    def on_cycle_start(self, cycle):
        self.cycle_starts.append(cycle)

    def on_tick(self, module, cycle, rank):
        self.ticks.append((cycle, module.name))

    def on_run_end(self, final_cycle):
        self.run_ends.append(final_cycle)


class TestEngineEquivalence:
    @given(
        st.lists(
            st.lists(st.integers(0, 200), min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_jump_and_crawl_do_identical_work(self, alarm_sets):
        from repro.sim.engine import Engine

        logs = {}
        finals = {}
        for allow_jump in (True, False):
            engine = Engine(allow_jump=allow_jump)
            modules = [
                _AlarmModule(f"m{i}", alarms).impl
                for i, alarms in enumerate(alarm_sets)
            ]
            for module in modules:
                engine.add(module)
            finals[allow_jump] = engine.run()
            logs[allow_jump] = [m.work_log for m in modules]
        assert logs[True] == logs[False]
        assert finals[True] == finals[False]

    @given(
        st.lists(
            st.lists(
                # (alarm cycle, peer to poke, poke delay)
                st.tuples(st.integers(0, 120), st.integers(0, 4), st.integers(0, 9)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_loops_agree_under_mid_tick_wakes(
        self, schedules, allow_jump
    ):
        """``run()`` uninstrumented and ``run()`` with a checker dispatch
        the same ``(cycle, module)`` sequence, wakes issued mid-tick
        included."""
        from repro.sim.engine import Engine

        def drive(checker):
            engine = Engine(allow_jump=allow_jump)
            if checker is not None:
                engine.attach_checker(checker)
            ticks = []
            modules = [
                _PokingModule(f"m{i}", schedule, engine, ticks)
                for i, schedule in enumerate(schedules)
            ]
            for module in modules:
                module.peers = modules
                engine.add(module)
            return ticks, engine.run()

        plain = drive(None)
        checked = _RecordingChecker()
        assert drive(checked) == plain
        assert checked.ticks == plain[0]
        # once per distinct cycle, before that cycle's first tick
        assert checked.cycle_starts == sorted(
            {cycle for cycle, __ in plain[0] if cycle > 0})
        assert checked.run_ends == [plain[1]]

    @pytest.mark.parametrize("how", ["run", "run_checked"])
    def test_budget_exceeded_through_every_loop(self, how):
        from repro.errors import CycleBudgetExceeded
        from repro.sim.engine import Engine, EngineChecker

        engine = Engine()
        engine.add(_AlarmModule("late", [10, 100]).impl)
        if how != "run":
            engine.attach_checker(EngineChecker())
        with pytest.raises(CycleBudgetExceeded) as caught:
            engine.run(max_cycles=50)
        error = caught.value
        assert (error.budget, error.cycle, error.module_name) == (50, 100, "late")
        assert engine.cycle == 10


# ----------------------------------------------------------------------
# The framework's central invariant: clock jumping is exact


class TestJumpExactness:
    @pytest.mark.parametrize("app_name", ["gemm", "bfs", "sm"])
    @pytest.mark.parametrize("plan", [SWIFT_BASIC_PLAN, SWIFT_MEMORY_PLAN],
                             ids=["basic", "memory"])
    def test_event_jump_equals_per_cycle(self, app_name, plan):
        """Running a hybrid plan with per-cycle ticking must give exactly
        the same cycle count as with event jumping: skipping silent
        cycles is a pure speed optimization, never a timing change."""
        gpu = make_tiny_gpu()
        app = make_app(app_name, scale="tiny")
        jumped = PlanSimulator(gpu, plan=plan).simulate(app, gather_metrics=False)
        crawled = PlanSimulator(
            gpu, plan=plan.with_choice("clocking", "per_cycle", name="crawl")
        ).simulate(app, gather_metrics=False)
        assert jumped.total_cycles == crawled.total_cycles
