"""Unit tests for the sectored cache with MSHRs."""

import pytest

from repro.errors import SimulationError
from repro.frontend.config import CacheConfig
from repro.memory.cache import AccessStatus, SectoredCache


def small_cache(**overrides) -> SectoredCache:
    params = dict(
        size_bytes=4 * 1024,   # 32 lines
        line_bytes=128,
        sector_bytes=32,
        assoc=4,
        mshr_entries=8,
        mshr_max_merge=2,
        latency=10,
    )
    params.update(overrides)
    return SectoredCache(CacheConfig(**params), name="test_cache")


class TestReadPath:
    def test_cold_miss_then_hit_after_fill(self):
        cache = small_cache()
        result = cache.access(0x10, 0, False, cycle=0)
        assert result.status is AccessStatus.MISS
        assert result.needs_fetch
        cache.set_fill_cycle(0x10, 0, 50)
        # Before the fill lands: pending hit (merge).
        pending = cache.access(0x10, 0, False, cycle=10)
        assert pending.status is AccessStatus.PENDING_HIT
        assert pending.ready_cycle == 50
        # After the fill: real hit.
        assert cache.access(0x10, 0, False, cycle=50).status is AccessStatus.HIT

    def test_sector_miss_on_present_line(self):
        cache = small_cache()
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1)
        assert cache.access(0x10, 0, False, 2).status is AccessStatus.HIT
        # Different sector of the same line still misses (sectored cache).
        result = cache.access(0x10, 1, False, 3)
        assert result.status is AccessStatus.MISS

    def test_probe_non_mutating(self):
        cache = small_cache()
        assert not cache.probe(0x10, 0)
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1)
        cache.access(0x10, 0, False, 2)
        assert cache.probe(0x10, 0)
        assert not cache.probe(0x10, 1)

    def test_mshr_merge_limit(self):
        cache = small_cache(mshr_max_merge=2)
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1000)
        assert cache.access(0x10, 0, False, 1).status is AccessStatus.PENDING_HIT
        assert cache.access(0x10, 0, False, 2).status is AccessStatus.PENDING_HIT
        # Third merge exceeds the limit.
        assert cache.access(0x10, 0, False, 3).status is AccessStatus.MSHR_FULL

    def test_mshr_capacity(self):
        cache = small_cache(mshr_entries=2)
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1000)
        cache.access(0x20, 0, False, 0)
        cache.set_fill_cycle(0x20, 0, 1000)
        assert cache.access(0x30, 0, False, 0).status is AccessStatus.MSHR_FULL
        assert cache.mshr_occupancy() == 2

    def test_mshr_frees_after_fill(self):
        cache = small_cache(mshr_entries=1)
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 5)
        result = cache.access(0x20, 0, False, 6)
        assert result.status is AccessStatus.MISS

    def test_reservation_fail_when_all_ways_pending(self):
        cache = small_cache(assoc=2, streaming=False, mshr_entries=16)
        num_sets = cache.config.num_sets
        # Two lines mapping to set 0, both pending.
        for i in range(2):
            line = i * num_sets
            assert cache.access(line, 0, False, 0).status is AccessStatus.MISS
            cache.set_fill_cycle(line, 0, 1000)
        result = cache.access(2 * num_sets, 0, False, 1)
        assert result.status is AccessStatus.RESERVATION_FAIL
        assert cache.counters.get("reservation_fails") == 1

    def test_streaming_cache_bypasses_instead_of_failing(self):
        cache = small_cache(assoc=2, streaming=True, mshr_entries=16)
        num_sets = cache.config.num_sets
        for i in range(2):
            line = i * num_sets
            cache.access(line, 0, False, 0)
            cache.set_fill_cycle(line, 0, 1000)
        result = cache.access(2 * num_sets, 0, False, 1)
        assert result.status is AccessStatus.MISS_BYPASS
        assert result.needs_fetch

    def test_eviction_after_fills(self):
        cache = small_cache(assoc=2)
        num_sets = cache.config.num_sets
        lines = [i * num_sets for i in range(3)]
        for index, line in enumerate(lines):
            cycle = index * 10
            assert cache.access(line, 0, False, cycle).status is AccessStatus.MISS
            cache.set_fill_cycle(line, 0, cycle + 1)
        # All fills landed; third line evicted one of the first two.
        present = [cache.probe(line, 0, cycle=100) for line in lines]
        assert present.count(True) == 2
        assert cache.probe(lines[2], 0, cycle=100)

    def test_next_fill_cycle(self):
        cache = small_cache()
        assert cache.next_fill_cycle(0) is None
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 42)
        assert cache.next_fill_cycle(0) == 42
        assert cache.next_fill_cycle(42) is None  # expired by the query


class TestWritePath:
    def test_write_through_store_hit_and_bypass(self):
        cache = small_cache(write_back=False, write_allocate=False)
        assert cache.access(0x10, 0, True, 0).status is AccessStatus.MISS_BYPASS
        # Load the sector in, then the store hits.
        cache.access(0x10, 0, False, 1)
        cache.set_fill_cycle(0x10, 0, 2)
        assert cache.access(0x10, 0, True, 3).status is AccessStatus.HIT

    def test_write_back_allocates_without_fetch(self):
        cache = small_cache(write_back=True, write_allocate=True)
        result = cache.access(0x10, 0, True, 0)
        assert result.status is AccessStatus.MISS
        assert not result.needs_fetch  # full-sector store
        assert cache.probe(0x10, 0)

    def test_dirty_eviction_reports_writeback(self):
        cache = small_cache(write_back=True, write_allocate=True, assoc=1)
        num_sets = cache.config.num_sets
        cache.access(0, 0, True, 0)
        cache.access(0, 1, True, 0)
        result = cache.access(num_sets, 0, True, 1)  # evicts line 0
        assert result.dirty_writeback_sectors == 2
        assert cache.counters.get("writeback_sectors") == 2

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(write_back=True, write_allocate=True, assoc=1)
        num_sets = cache.config.num_sets
        cache.access(0, 0, False, 0)
        cache.set_fill_cycle(0, 0, 1)
        cache.access(0, 0, False, 2)  # ensure fill retired
        result = cache.access(num_sets, 0, True, 3)
        assert result.dirty_writeback_sectors == 0


class TestBookkeeping:
    def test_counters(self):
        cache = small_cache()
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1)
        cache.access(0x10, 0, False, 2)
        assert cache.counters.get("sector_accesses") == 2
        assert cache.counters.get("sector_misses") == 1
        assert cache.counters.get("sector_hits") == 1
        assert cache.counters.get("fills") == 1

    def test_set_fill_twice_raises(self):
        cache = small_cache()
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 5)
        with pytest.raises(SimulationError):
            cache.set_fill_cycle(0x10, 0, 6)

    def test_set_fill_without_entry_raises(self):
        cache = small_cache()
        with pytest.raises(SimulationError):
            cache.set_fill_cycle(0x99, 0, 5)

    def test_reset_clears_contents(self):
        cache = small_cache()
        cache.access(0x10, 0, False, 0)
        cache.set_fill_cycle(0x10, 0, 1)
        cache.access(0x10, 0, False, 2)
        cache.reset()
        assert not cache.probe(0x10, 0)
        assert cache.mshr_occupancy() == 0
        assert cache.counters.get("sector_accesses") == 0

    def test_access_functional_never_stalls(self):
        cache = small_cache(mshr_entries=1, assoc=1)
        for line in range(100):
            result = cache.access_functional(line, 0, False)
            assert result.status in (AccessStatus.MISS, AccessStatus.HIT)

    def test_functional_hits_on_reuse(self):
        cache = small_cache()
        assert cache.access_functional(0x10, 0, False).status is AccessStatus.MISS
        assert cache.access_functional(0x10, 0, False).status is AccessStatus.HIT

    def test_functional_access_refuses_a_cache_with_fills_in_flight(self):
        cache = small_cache()
        cache.access(0x10, 0, False, 0)  # timed miss: MSHR entry, no fill yet
        with pytest.raises(SimulationError, match="fills in flight"):
            cache.access_functional(0x20, 0, False)
        # Once the fill has landed the cache is consistent again.
        cache.set_fill_cycle(0x10, 0, 5)
        assert cache.probe(0x10, 0, cycle=5)
        assert cache.access_functional(0x10, 0, False).status is AccessStatus.HIT

    def test_pending_line_never_evicted(self):
        cache = small_cache(assoc=2, mshr_entries=32, streaming=True)
        num_sets = cache.config.num_sets
        cache.access(0, 0, False, 0)
        cache.set_fill_cycle(0, 0, 1000)
        # Fill the other way, then force bypasses; pending line must survive.
        cache.access(num_sets, 0, False, 0)
        cache.set_fill_cycle(num_sets, 0, 1000)
        for i in range(2, 6):
            cache.access(i * num_sets, 0, False, 1)
        pending = cache.access(0, 0, False, 2)
        assert pending.status is AccessStatus.PENDING_HIT
