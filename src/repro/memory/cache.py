"""Sectored cache with MSHRs (models both the L1 and one L2 slice).

Lines are 128 bytes split into 32-byte sectors with per-sector
valid/dirty bits, as in Turing/Ampere (Table II).

**Tag store.**  Hardware matches a tag against every way of a set at
once; the model does the same with one dictionary probe.  ``_index``
maps a line address to its resident :class:`_Line`, which carries its
way number and its set's replacement policy, so a hit never computes a
set index and never walks the ways.  Sets are ``(ways, policy)`` pairs
that materialise on their first fill, and each of their lines on its
own fill: lines are never invalidated, so ways fill in order and
``len(ways)`` is both the set's fill count and its next free way.  Only
a line miss on a full set consults the policy, and it filters out ways
with a fill in flight only while the MSHR holds one.  Per-set policy
seeds derive from the set index, so materialisation order cannot change
replacement behaviour.

**Two drivers** share that store, :meth:`SectoredCache._install`
(victim choice and eviction), the write path and the counters:

* *Timed* — :meth:`SectoredCache.access` at an externally supplied
  cycle; on a genuine miss the caller reports when the downstream fill
  arrives via :meth:`SectoredCache.set_fill_cycle`.  Misses allocate
  Miss Status Holding Register entries keyed by ``(line, sector)``;
  later requests to an in-flight sector merge into the entry up to the
  configured merge limit, and a line with a fill in flight is not
  evictable.  The per-cycle detailed memory system (Accel-Sim-like
  baseline) and the reservation-queued one (Swift-Sim-Basic) drive the
  cache this way.
* *Functional* — :meth:`SectoredCache.access_functional`, the
  zero-latency profiling pass that feeds the Eq. 1 analytical model.  A
  fill lands before the access returns, so no fill is ever in flight:
  the MSHR, the expiry heap and the structural stalls they cause are
  unobservable and this driver never touches them.  It answers exactly
  what ``access(..., cycle=n)`` followed by ``set_fill_cycle(..., n)``
  answers (``tests/test_properties.py`` keeps that reference).

A cache takes one driver: the functional one refuses a cache that has
fills in flight.
"""

from __future__ import annotations

import heapq
from enum import Enum, unique
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.frontend.config import CacheConfig
from repro.memory.replacement import ReplacementPolicy, make_replacement_policy
from repro.sim.module import ModelLevel, Module
from repro.utils.bitops import bit_count, mask_iter


@unique
class AccessStatus(Enum):
    """Outcome of one sector access: its label and the counter an access
    with that outcome increments."""

    HIT = ("hit", "sector_hits")
    # merged into an in-flight fill
    PENDING_HIT = ("pending_hit", "pending_hits")
    # new downstream fetch required
    MISS = ("miss", "sector_misses")
    # streaming cache: fetch, don't allocate
    MISS_BYPASS = ("miss_bypass", "sector_misses")
    # structural stall: retry later
    MSHR_FULL = ("mshr_full", "mshr_full_stalls")
    # no evictable way: retry later
    RESERVATION_FAIL = ("reservation_fail", "reservation_fails")

    def __init__(self, label: str, counter: str) -> None:
        self.label = label
        self.counter = counter


class AccessResult:
    """What one access did.

    ``needs_fetch`` tells the caller to fetch the sector downstream and
    then report the fill time.  ``ready_cycle`` is set for PENDING_HIT
    (when the in-flight fill lands).  ``dirty_writeback_sectors`` counts
    dirty sectors evicted by this access (write-back traffic the caller
    must send downstream).
    """

    __slots__ = ("status", "needs_fetch", "ready_cycle", "dirty_writeback_sectors")

    def __init__(
        self,
        status: AccessStatus,
        needs_fetch: bool = False,
        ready_cycle: Optional[int] = None,
        dirty_writeback_sectors: int = 0,
    ) -> None:
        self.status = status
        self.needs_fetch = needs_fetch
        self.ready_cycle = ready_cycle
        self.dirty_writeback_sectors = dirty_writeback_sectors

    def __repr__(self) -> str:
        return (
            f"AccessResult({self.status.label}, fetch={self.needs_fetch}, "
            f"ready={self.ready_cycle}, wb={self.dirty_writeback_sectors})"
        )


# Shared results for the outcomes that carry no per-access payload
# (callers treat AccessResult as read-only).
_HIT = AccessResult(AccessStatus.HIT)
_HIT_COUNTER = AccessStatus.HIT.counter
_MISS_FETCH = AccessResult(AccessStatus.MISS, needs_fetch=True)
_MISS_BYPASS_WRITE_THROUGH = AccessResult(AccessStatus.MISS_BYPASS)


class _Line:
    """One resident line: a filled way of its set."""

    __slots__ = (
        "line_addr", "way", "policy", "valid_mask", "dirty_mask", "pending_mask"
    )

    def __init__(self, line_addr: int, way: int, policy: ReplacementPolicy) -> None:
        self.line_addr = line_addr
        self.way = way
        self.policy = policy  # the set's, shared by all its lines
        self.valid_mask = 0
        self.dirty_mask = 0
        self.pending_mask = 0


class _MSHREntry:
    """In-flight fill for one (line, sector)."""

    __slots__ = ("line", "fill_cycle", "merges")

    def __init__(self, line: _Line) -> None:
        self.line = line
        self.fill_cycle: Optional[int] = None
        self.merges = 0


class SectoredCache(Module):
    """A sectored, MSHR-backed cache level."""

    component = "cache"
    level = ModelLevel.CYCLE_ACCURATE

    def __init__(self, config: CacheConfig, name: str = "cache", seed: int = 0) -> None:
        super().__init__(name)
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._all_ways = range(config.assoc)
        self._seed = seed
        self._index: Dict[int, _Line] = {}
        self._sets: Dict[int, Tuple[List[_Line], ReplacementPolicy]] = {}
        self._mshr: Dict[Tuple[int, int], _MSHREntry] = {}
        self._expiry: List[Tuple[int, int, int]] = []  # (fill_cycle, line, sector)

    # ------------------------------------------------------------------
    # bookkeeping

    def reset(self) -> None:
        super().reset()
        self._index.clear()
        self._sets.clear()
        self._mshr.clear()
        self._expiry.clear()

    def _expire(self, cycle: int) -> None:
        """Retire every fill whose data has arrived by ``cycle``."""
        expiry = self._expiry
        mshr = self._mshr
        fills = 0
        while expiry and expiry[0][0] <= cycle:
            __, line_addr, sector = heapq.heappop(expiry)
            entry = mshr.pop((line_addr, sector), None)
            if entry is None:
                continue
            line = entry.line
            bit = 1 << sector
            line.pending_mask &= ~bit
            line.valid_mask |= bit
            fills += 1
        if fills:
            self.counters["fills"] += fills

    def set_fill_cycle(self, line_addr: int, sector: int, fill_cycle: int) -> None:
        """Report when the downstream fetch for a MISS will fill the sector."""
        entry = self._mshr.get((line_addr, sector))
        if entry is None:
            raise SimulationError(
                f"{self.name}: no MSHR entry for line {line_addr:#x} sector {sector}"
            )
        if entry.fill_cycle is not None:
            raise SimulationError(
                f"{self.name}: fill cycle already set for line {line_addr:#x} "
                f"sector {sector}"
            )
        entry.fill_cycle = fill_cycle
        heapq.heappush(self._expiry, (fill_cycle, line_addr, sector))

    def next_fill_cycle(self, after_cycle: int) -> Optional[int]:
        """Earliest in-flight fill landing strictly after ``after_cycle``.

        Used by reservation-mode drivers to retry a structurally stalled
        access at the first cycle the stall could clear.
        """
        expiry = self._expiry
        if expiry and expiry[0][0] <= after_cycle:
            self._expire(after_cycle)
        if not expiry:
            return None
        return expiry[0][0]

    def mshr_occupancy(self) -> int:
        """Number of live MSHR entries (for tests and metrics)."""
        return len(self._mshr)

    def invariants(self, cycle: int) -> List[str]:
        broken: List[str] = []
        occupancy = len(self._mshr)
        if occupancy > self.config.mshr_entries:
            broken.append(
                f"MSHR leak: {occupancy} live entries exceed the "
                f"configured {self.config.mshr_entries}"
            )
        for (line_addr, sector), entry in self._mshr.items():
            if entry.merges > self.config.mshr_max_merge:
                broken.append(
                    f"MSHR entry for line {line_addr:#x} sector {sector} "
                    f"merged {entry.merges} accesses "
                    f"(limit {self.config.mshr_max_merge})"
                )
                break
        broken.extend(self._tag_store_invariants())
        return broken

    def _tag_store_invariants(self) -> List[str]:
        """Index <-> ways agreement, and pending bits <-> MSHR entries."""
        index = self._index
        resident = 0
        for set_idx, (ways, __) in self._sets.items():
            if len(ways) > self._assoc:
                return [f"set {set_idx} holds {len(ways)} lines (assoc {self._assoc})"]
            resident += len(ways)
            for way, line in enumerate(ways):
                if (
                    line.way != way
                    or line.line_addr % self._num_sets != set_idx
                    or index.get(line.line_addr) is not line
                ):
                    return [
                        f"tag store: way {way} of set {set_idx} holds line "
                        f"{line.line_addr:#x} (way {line.way}), which the "
                        f"index does not map back to it"
                    ]
                for sector in mask_iter(line.pending_mask):
                    if (line.line_addr, sector) not in self._mshr:
                        return [
                            f"line {line.line_addr:#x} sector {sector} is "
                            f"pending with no MSHR entry"
                        ]
        if resident != len(index):
            return [
                f"tag store: index maps {len(index)} lines, the sets hold "
                f"{resident}"
            ]
        for (line_addr, sector), entry in self._mshr.items():
            if index.get(line_addr) is not entry.line or not (
                entry.line.pending_mask >> sector & 1
            ):
                return [
                    f"MSHR entry for line {line_addr:#x} sector {sector} "
                    f"points at a line that is not resident and pending"
                ]
        return []

    def probe(self, line_addr: int, sector: int, cycle: Optional[int] = None) -> bool:
        """Is the sector present and valid?  With ``cycle``, fills that
        have landed by then are retired first (replacement state is not
        touched either way)."""
        if cycle is not None:
            self._expire(cycle)
        line = self._index.get(line_addr)
        return line is not None and bool(line.valid_mask & (1 << sector))

    # ------------------------------------------------------------------
    # the access state machine

    def access(
        self, line_addr: int, sector: int, is_write: bool, cycle: int
    ) -> AccessResult:
        """Perform one sector access at ``cycle`` (the timed driver)."""
        expiry = self._expiry
        if expiry and expiry[0][0] <= cycle:
            self._expire(cycle)
        counters = self.counters
        counters["sector_accesses"] += 1
        if is_write:
            result = self._access_write(line_addr, sector)
        else:
            # A read hit — the common outcome — is decided here, with no
            # further frame than the policy's.
            line = self._index.get(line_addr)
            if line is not None and line.valid_mask >> sector & 1:
                line.policy.on_access(line.way)
                counters[_HIT_COUNTER] += 1
                return _HIT
            result = self._read_miss(line, line_addr, sector)
        counters[result.status.counter] += 1
        if result.dirty_writeback_sectors:
            counters["writeback_sectors"] += result.dirty_writeback_sectors
        return result

    def access_functional(self, line_addr: int, sector: int, is_write: bool) -> AccessResult:
        """Zero-latency access for profiling passes (the functional
        driver): a fetched sector is valid when the call returns, so
        structural stalls (MSHR/reservation) cannot occur."""
        if self._mshr:
            raise SimulationError(
                f"{self.name}: functional access with {len(self._mshr)} timed "
                f"fills in flight (a cache takes one driver)"
            )
        counters = self.counters
        counters["sector_accesses"] += 1
        if is_write:
            # No fill is pending, so the write path allocates no MSHR entry.
            result = self._access_write(line_addr, sector)
        else:
            bit = 1 << sector
            line = self._index.get(line_addr)
            if line is None:
                line, writeback = self._install(line_addr)
                result = _MISS_FETCH if not writeback else AccessResult(
                    AccessStatus.MISS, needs_fetch=True,
                    dirty_writeback_sectors=writeback,
                )
            else:
                line.policy.on_access(line.way)
                result = _HIT if line.valid_mask & bit else _MISS_FETCH
            line.valid_mask |= bit  # the fetched sector has landed
        counters[result.status.counter] += 1
        if result.dirty_writeback_sectors:
            counters["writeback_sectors"] += result.dirty_writeback_sectors
        if result.needs_fetch:
            counters["fills"] += 1
        return result

    def _read_miss(
        self, line: Optional[_Line], line_addr: int, sector: int
    ) -> AccessResult:
        """A read that did not hit: ``line`` is the resident line whose
        ``sector`` is not valid, or ``None`` on a line miss."""
        mshr = self._mshr
        if line is not None:
            entry = mshr.get((line_addr, sector))
            if entry is not None:
                if entry.merges >= self.config.mshr_max_merge:
                    return AccessResult(AccessStatus.MSHR_FULL)
                entry.merges += 1
                return AccessResult(
                    AccessStatus.PENDING_HIT, ready_cycle=entry.fill_cycle
                )
            # Sector miss on a present line: fetch just this sector.
            if len(mshr) >= self.config.mshr_entries:
                return AccessResult(AccessStatus.MSHR_FULL)
            line.pending_mask |= 1 << sector
            mshr[(line_addr, sector)] = _MSHREntry(line)
            line.policy.on_access(line.way)
            return _MISS_FETCH
        # Line miss: allocate a way (or bypass for streaming caches).
        if len(mshr) >= self.config.mshr_entries:
            return AccessResult(AccessStatus.MSHR_FULL)
        line, writeback = self._install(line_addr)
        if line is None:
            if self.config.streaming:
                self.counters["bypasses"] += 1
                return AccessResult(AccessStatus.MISS_BYPASS, needs_fetch=True)
            return AccessResult(AccessStatus.RESERVATION_FAIL)
        line.pending_mask = 1 << sector
        mshr[(line_addr, sector)] = _MSHREntry(line)
        if not writeback:
            return _MISS_FETCH
        return AccessResult(
            AccessStatus.MISS, needs_fetch=True, dirty_writeback_sectors=writeback
        )

    def _access_write(self, line_addr: int, sector: int) -> AccessResult:
        bit = 1 << sector
        line = self._index.get(line_addr)
        if not self.config.write_back:
            # Write-through, no write-allocate (the Turing L1): update the
            # sector if present; the caller forwards the write downstream
            # either way.
            if line is not None and line.valid_mask & bit:
                line.policy.on_access(line.way)
                return _HIT
            return _MISS_BYPASS_WRITE_THROUGH
        # Write-back, write-allocate (the L2). A full-sector store needs no
        # downstream fetch: allocate, mark valid + dirty.
        if line is not None:
            if line.pending_mask & bit:
                # Sector is being filled; coalesce the write behind the fill.
                entry = self._mshr.get((line_addr, sector))
                line.dirty_mask |= bit
                return AccessResult(
                    AccessStatus.PENDING_HIT,
                    ready_cycle=entry.fill_cycle if entry else None,
                )
            hit = line.valid_mask & bit
            line.valid_mask |= bit
            line.dirty_mask |= bit
            line.policy.on_access(line.way)
            return _HIT if hit else AccessResult(AccessStatus.MISS)
        line, writeback = self._install(line_addr)
        if line is None:
            return AccessResult(AccessStatus.RESERVATION_FAIL)
        line.valid_mask = line.dirty_mask = bit
        return AccessResult(
            AccessStatus.MISS, needs_fetch=False, dirty_writeback_sectors=writeback
        )

    def _install(self, line_addr: int) -> Tuple[Optional[_Line], int]:
        """Give ``line_addr`` a way of its set and index it, evicting the
        policy's victim when the set is full.

        Returns the line (all masks clear) and the number of dirty sectors
        the eviction wrote back, or ``(None, 0)`` when every way has a fill
        in flight and nothing is evictable.
        """
        set_idx = line_addr % self._num_sets
        cache_set = self._sets.get(set_idx)
        if cache_set is None:
            ways: List[_Line] = []
            policy = make_replacement_policy(
                self.config.replacement, self._assoc, seed=self._seed + set_idx
            )
            self._sets[set_idx] = (ways, policy)
        else:
            ways, policy = cache_set
        way = len(ways)
        writeback = 0
        if way < self._assoc:
            line = _Line(line_addr, way, policy)
            ways.append(line)
        else:
            candidates = self._all_ways
            if self._mshr:
                candidates = [w.way for w in ways if not w.pending_mask]
                if not candidates:
                    return None, 0
            way = policy.victim(candidates)
            line = ways[way]
            del self._index[line.line_addr]
            if line.dirty_mask:
                writeback = bit_count(line.dirty_mask)
                self.counters["evictions_dirty"] += 1
            else:
                self.counters["evictions_clean"] += 1
            line.line_addr = line_addr
            line.valid_mask = 0
            line.dirty_mask = 0
        self._index[line_addr] = line
        policy.on_fill(way)
        return line, writeback
