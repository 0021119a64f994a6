"""Tests for the Eq. 1 analytical memory model and its profiles."""

import pytest

from repro.eval.sweep import DesignSpaceSweep
from repro.frontend.isa import InstKind
from repro.memory.analytical import (
    _PROFILE_MEMO,
    AnalyticalMemoryModel,
    CacheSimProfiler,
    MemoryProfile,
)
from repro.memory.reuse_distance import PCProfile
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

from conftest import load, make_tiny_gpu


def make_profile(gpu, pc_entries):
    """Build a MemoryProfile from {pc: (accesses, l1, l2, dram, tx, n)}."""
    per_pc = {}
    for pc, (accesses, l1, l2, dram, transactions, instructions) in pc_entries.items():
        profile = PCProfile()
        profile.accesses = accesses
        profile.l1_hits = l1
        profile.l2_hits = l2
        profile.dram_accesses = dram
        profile.transactions = transactions
        profile.instructions = instructions
        per_pc[pc] = profile
    return MemoryProfile(gpu, per_pc)


class TestEquationOne:
    def test_pure_l1_latency(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x10: (4, 4, 0, 0, 4, 1)})
        latency, tx, r_dram = profile.expected(0x10)
        assert latency == gpu.l1.latency
        assert tx == 4
        assert r_dram == 0.0

    def test_pure_dram_latency(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x10: (4, 0, 0, 4, 4, 1)})
        latency, __, r_dram = profile.expected(0x10)
        assert latency == profile.latency_dram
        assert r_dram == 1.0
        assert profile.latency_dram > gpu.l1.latency + gpu.l2.latency + gpu.dram.latency

    def test_mixed_is_weighted_sum(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x10: (10, 5, 3, 2, 10, 1)})
        latency, __, __r = profile.expected(0x10)
        expected = round(
            0.5 * profile.latency_l1 + 0.3 * profile.latency_l2 + 0.2 * profile.latency_dram
        )
        assert latency == expected

    def test_unknown_pc_defaults_to_dram(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {})
        latency, tx, r_dram = profile.expected(0x999)
        assert latency == profile.latency_dram
        assert r_dram == 1.0

    def test_latency_hierarchy_ordering(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {})
        assert profile.latency_l1 < profile.latency_l2 < profile.latency_dram


class TestAnalyticalModel:
    def test_load_returns_expected_latency(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (4, 4, 0, 0, 4, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = load(0x0, 1, [0x1000 + 4 * i for i in range(32)])
        completion, tx = model.access_global(0, inst, cycle=100)
        assert completion == 100 + gpu.l1.latency
        assert tx == 4

    def test_store_retires_at_port(self):
        from repro.frontend.trace import TraceInstruction
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (4, 0, 4, 0, 4, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = TraceInstruction(
            0x0, "STG", src_regs=(1,),
            addresses=tuple(0x1000 + 4 * i for i in range(32)),
        )
        completion, __ = model.access_global(0, inst, cycle=10)
        assert completion <= 12

    def test_port_contention_tracked(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (32, 32, 0, 0, 32, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = load(0x0, 1, [0x1000 + 128 * i for i in range(32)])
        first, __ = model.access_global(0, inst, cycle=0)
        second, __ = model.access_global(0, inst, cycle=0)
        assert second > first  # the port reservation pushed the second

    def test_dram_bandwidth_queue_adds_latency(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (32, 0, 0, 32, 32, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = load(0x0, 1, [0x100000 + 128 * i for i in range(32)])
        completions = []
        for issue in range(6):
            completion, __ = model.access_global(issue % 2, inst, cycle=0)
            completions.append(completion)
        assert completions[-1] > completions[0]
        assert model.counters.get("dram_queue_cycles") > 0

    def test_different_sms_have_independent_ports(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (4, 4, 0, 0, 4, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = load(0x0, 1, [0x1000 + 4 * i for i in range(32)])
        a, __ = model.access_global(0, inst, cycle=0)
        b, __ = model.access_global(1, inst, cycle=0)
        assert a == b

    def test_reset(self):
        gpu = make_tiny_gpu()
        profile = make_profile(gpu, {0x0: (4, 4, 0, 0, 4, 1)})
        model = AnalyticalMemoryModel(gpu, profile)
        inst = load(0x0, 1, [0x1000 + 4 * i for i in range(32)])
        first, __ = model.access_global(0, inst, cycle=0)
        model.access_global(0, inst, cycle=0)
        model.reset()
        again, __ = model.access_global(0, inst, cycle=0)
        assert again == first


class TestProfilers:
    def test_cache_sim_and_reuse_distance_roughly_agree(self):
        gpu = make_tiny_gpu()
        kernel = make_app("atax", scale="tiny").kernels[0]
        cache_profile = MemoryProfile.from_cache_simulation(gpu, kernel)
        rd_profile = MemoryProfile.from_reuse_distance(gpu, kernel)
        assert set(cache_profile.per_pc) == set(rd_profile.per_pc)
        for pc in cache_profile.per_pc:
            cache_latency, __, __r = cache_profile.expected(pc)
            rd_latency, __, __r2 = rd_profile.expected(pc)
            # Same order of magnitude: both are plausible hit-rate sources.
            assert rd_latency <= 2.5 * cache_latency + 50
            assert cache_latency <= 2.5 * rd_latency + 50

    def test_cache_sim_profiler_state_persists(self):
        gpu = make_tiny_gpu()
        app = make_app("atax", scale="tiny")
        profiler = CacheSimProfiler(gpu)
        first = profiler.profile(app.kernels[0])
        second = profiler.profile(app.kernels[1])

        def hit_fraction(tally):
            hits = sum(p.l1_hits + p.l2_hits for p in tally.values())
            total = sum(p.accesses for p in tally.values())
            return hits / total

        # Same code, warm caches: the second kernel hits at least as often.
        assert hit_fraction(second) >= hit_fraction(first)

    def test_for_application_builds_one_profile_per_kernel(self):
        gpu = make_tiny_gpu()
        app = make_app("backprop", scale="tiny")
        for source in ("cache_sim", "reuse_distance"):
            profiles = MemoryProfile.for_application(gpu, app.kernels, source=source)
            assert len(profiles) == len(app.kernels)

    def test_memo_returns_identical_list_and_matches_unmemoised(self):
        gpu = make_tiny_gpu()
        app = make_app("atax", scale="tiny")
        for source in ("cache_sim", "reuse_distance"):
            first = MemoryProfile.for_application(
                gpu, app.kernels, source=source, memo_key=app)
            again = MemoryProfile.for_application(
                gpu, app.kernels, source=source, memo_key=app)
            assert again is first
            # memo_key=None is the unmemoised reference: a fresh pass
            # with value-identical per-PC tallies.
            reference = MemoryProfile.for_application(
                gpu, app.kernels, source=source)
            assert reference is not first
            assert [p._expected for p in reference] == [
                p._expected for p in first]
        assert set(_PROFILE_MEMO[app]) == {"cache_sim", "reuse_distance"}

    def test_memo_stays_bounded_across_a_sweep(self):
        """One entry per source per app: a sweep replaces the entry on
        each new config instead of accumulating dead ones."""
        app = make_app("sm", scale="tiny")
        sweep = DesignSpaceSweep(make_tiny_gpu(), {
            "l1.latency": [8, 16, 24, 32], "num_sms": [2, 4, 8],
        })
        points = sweep.run(SwiftSimMemory, [app]).points
        assert len(points) == 12
        assert list(_PROFILE_MEMO[app]) == ["cache_sim"]
        # The surviving entry still serves the last config object.
        config, profiles = _PROFILE_MEMO[app]["cache_sim"]
        assert MemoryProfile.for_application(
            config, app.kernels, memo_key=app) is profiles

    def test_transactions_match_coalescer(self):
        gpu = make_tiny_gpu()
        kernel = make_app("gemm", scale="tiny").kernels[0]
        profile = MemoryProfile.from_cache_simulation(gpu, kernel)
        from repro.memory.access import coalesce
        for inst in kernel.memory_accesses():
            expected_tx = len(coalesce(inst.addresses))
            __, avg_tx, __r = profile.expected(inst.pc)
            assert avg_tx > 0
