"""Analytical memory-access model (paper §III-D2, Equation 1).

The expected latency of the Load/Store instructions at one PC is

    L_inst = L_L1 * R_L1  +  L_L2 * R_L2  +  L_DRAM * R_DRAM

where the R terms are per-PC hit fractions obtained from a profiling
pre-pass — either the reuse-distance tool
(:class:`~repro.memory.reuse_distance.ReuseDistanceProfiler`) or a
one-shot functional run of the real sectored caches.  The timing pass
then never touches the cache model: each memory instruction costs one
table lookup plus two contention reservations (the SM's LD/ST port and
the aggregate DRAM bandwidth), which is what buys Swift-Sim-Memory its
extra speedup over Swift-Sim-Basic.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary
from typing import Dict, List, Tuple

from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import KernelTrace, TraceInstruction
from repro.memory.access import touched_sectors
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.l2 import build_l2_slices, route_line
from repro.memory.reuse_distance import PCProfile, ReuseDistanceProfiler
from repro.sim.module import ModelLevel, Module
from repro.utils.bitops import ceil_div

#: Memoized :meth:`MemoryProfile.for_application` results, keyed weakly
#: on the application trace.  Profiling is a deterministic pure function
#: of ``(config, kernels, source)`` and the resulting profiles are
#: immutable after construction, so re-running it for the same app —
#: which differential/shadow verification and benchmark sweeps do
#: constantly — is pure waste.  Values map ``source -> (config,
#: profiles)``: one entry per source per app, replaced when a different
#: config object (compared by identity) profiles the app, so a design-
#: space sweep cannot accumulate dead entries.
_PROFILE_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()


class MemoryProfile:
    """Per-PC expected latencies and transaction counts for one kernel."""

    def __init__(self, config: GPUConfig, per_pc: Dict[int, PCProfile]) -> None:
        self.config = config
        self.per_pc = per_pc
        noc_round_trip = 2 * config.noc.latency
        self.latency_l1 = config.l1.latency
        self.latency_l2 = config.l1.latency + noc_round_trip + config.l2.latency
        dram_burst = ceil_div(config.l2.sector_bytes, config.dram.bytes_per_cycle)
        self.latency_dram = self.latency_l2 + config.dram.latency + dram_burst
        self._expected: Dict[int, Tuple[int, float, float]] = {}
        for pc, stats in per_pc.items():
            latency = (
                self.latency_l1 * stats.r_l1
                + self.latency_l2 * stats.r_l2
                + self.latency_dram * stats.r_dram
            )
            self._expected[pc] = (
                max(1, round(latency)),
                stats.avg_transactions,
                stats.r_dram,
            )

    def expected(self, pc: int) -> Tuple[int, float, float]:
        """Return ``(L_inst, avg_transactions, r_dram)`` for ``pc``.

        A PC absent from the profile (possible only if the timing trace
        diverges from the profiled trace) is treated as DRAM-bound.
        """
        entry = self._expected.get(pc)
        if entry is None:
            return self.latency_dram, 1.0, 1.0
        return entry

    @staticmethod
    def from_reuse_distance(config: GPUConfig, kernel: KernelTrace) -> "MemoryProfile":
        """Profile one kernel with the reuse-distance tool (LRU-only)."""
        return MemoryProfile(config, ReuseDistanceProfiler(config).profile(kernel))

    @staticmethod
    def from_cache_simulation(config: GPUConfig, kernel: KernelTrace) -> "MemoryProfile":
        """Profile one kernel with a functional pass of the real caches."""
        return MemoryProfile(config, CacheSimProfiler(config).profile(kernel))

    @staticmethod
    def for_application(
        config: GPUConfig, kernels, source: str = "cache_sim", memo_key=None
    ) -> "List[MemoryProfile]":
        """Per-kernel profiles with cache/stack state carried *across*
        kernels, matching the simulated caches' cross-kernel warmth.

        ``memo_key`` (an :class:`~repro.frontend.trace.ApplicationTrace`
        owning exactly ``kernels``) opts the call into the memo:
        repeated profiling of the same app with the same config object
        and source returns the cached profiles.  ``memo_key=None`` is
        the unmemoised reference.
        """
        memo = None if memo_key is None else _PROFILE_MEMO.setdefault(memo_key, {})
        if memo is not None:
            entry = memo.get(source)
            if entry is not None and entry[0] is config:
                return entry[1]
        if source == "reuse_distance":
            profiler = ReuseDistanceProfiler(config)
            tallies = profiler.profile_many(kernels)
        else:
            cache_profiler = CacheSimProfiler(config)
            tallies = [cache_profiler.profile(kernel) for kernel in kernels]
        profiles = [MemoryProfile(config, per_pc) for per_pc in tallies]
        if memo is not None:
            memo[source] = (config, profiles)
        return profiles


class CacheSimProfiler:
    """Functional cache-simulation profiler.

    Honors sectors, allocation policy, and the configured replacement
    policy — the profiling option the paper prefers for non-LRU design
    points.  Cache state persists across :meth:`profile` calls so a
    kernel sequence sees realistic warmth.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._l1s: List[SectoredCache] = []
        self._l2s = build_l2_slices(config)

    def profile(self, kernel: KernelTrace) -> Dict[int, PCProfile]:
        config = self.config
        wanted = min(config.num_sms, len(kernel.blocks))
        while len(self._l1s) < wanted:
            index = len(self._l1s)
            self._l1s.append(
                SectoredCache(config.l1, name=f"prof_l1_{index}", seed=index)
            )
        l1s = self._l1s
        l2s = self._l2s
        per_pc: Dict[int, PCProfile] = {}
        sector_bytes = config.l1.sector_bytes
        sectors_per_line = config.l1.sectors_per_line
        partitions = config.memory_partitions
        num_l1s = max(1, wanted)
        hit = AccessStatus.HIT
        for block in kernel.blocks:
            l1_access = l1s[block.block_id % num_l1s].access_functional
            for warp in block.warps:
                for inst in warp.instructions:
                    if not inst.is_memory or inst.mem_space is MemSpace.SHARED:
                        continue
                    profile = per_pc.get(inst.pc)
                    if profile is None:
                        profile = per_pc[inst.pc] = PCProfile()
                    # One transaction per touched sector, first touch first.
                    sectors = touched_sectors(inst.addresses, sector_bytes)
                    is_store = inst.kind is not InstKind.LOAD
                    # Tallied in locals, added to the profile once per
                    # instruction.
                    l1_hits = l2_hits = 0
                    for sector_addr in sectors:
                        line, sector = divmod(sector_addr, sectors_per_line)
                        result = l1_access(line, sector, is_store)
                        if not is_store and result.status is hit:
                            l1_hits += 1
                            continue
                        partition, slice_line = route_line(line, partitions)
                        l2_result = l2s[partition].access_functional(
                            slice_line, sector, is_store
                        )
                        if is_store or l2_result.status is hit:
                            l2_hits += 1
                    count = len(sectors)
                    dram_accesses = count - l1_hits - l2_hits
                    profile.instructions += 1
                    profile.transactions += count
                    profile.accesses += count
                    profile.l1_hits += l1_hits
                    profile.l2_hits += l2_hits
                    profile.dram_accesses += dram_accesses
                    profile.note_instruction_level(
                        2 if dram_accesses else 1 if l2_hits else 0
                    )
        return per_pc


class AnalyticalMemoryModel(Module):
    """Timing-side model consuming a :class:`MemoryProfile` (Eq. 1 + contention).

    Contention on top of ``L_inst`` (paper: "we add the additional latency
    due to resource contention"):

    * the SM's LD/ST port is occupied ``ceil(tx / throughput)`` cycles per
      instruction (cycle-accurate reservation, like the hybrid ALU model);
    * aggregate DRAM bandwidth is a fluid server — the expected DRAM
      sectors of each instruction advance a virtual clock, and the queue
      excess is charged back in proportion to the instruction's DRAM
      fraction.
    """

    component = "memory"
    level = ModelLevel.ANALYTICAL

    def __init__(self, config: GPUConfig, profile: MemoryProfile, name: str = "memory") -> None:
        super().__init__(name)
        self.config = config
        self.profile = profile
        self._port_free = [0] * config.num_sms
        self._dram_virtual = 0.0
        # Aggregate DRAM drain rate in sectors per cycle.
        self._dram_rate = (
            config.memory_partitions * config.dram.bytes_per_cycle
        ) / config.l2.sector_bytes
        self._throughput = config.sm.ldst_throughput

    def reset(self) -> None:
        super().reset()
        self._port_free = [0] * self.config.num_sms
        self._dram_virtual = 0.0

    def access_global(  # repro: port
        self, sm_id: int, inst: TraceInstruction, cycle: int
    ) -> Tuple[int, int]:
        """Resolve one memory instruction; returns (completion, transactions)."""
        latency, avg_tx, r_dram = self.profile.expected(inst.pc)
        transactions = max(1, round(avg_tx))
        start = self._port_free[sm_id]
        if start < cycle:
            start = cycle
        else:
            self.counters["port_stall_cycles"] += start - cycle
        occupancy = ceil_div(transactions, self._throughput)
        self._port_free[sm_id] = start + occupancy
        extra = 0
        dram_sectors = transactions * r_dram
        if dram_sectors > 0.0:
            service = dram_sectors / self._dram_rate
            virtual = self._dram_virtual
            if virtual < start:
                virtual = float(start)
            queue_wait = virtual - start
            self._dram_virtual = virtual + service
            extra = int(queue_wait * r_dram)
            if extra:
                self.counters["dram_queue_cycles"] += extra
        self.counters["global_instructions"] += 1
        self.counters["sector_transactions"] += transactions
        if inst.kind is InstKind.STORE:
            # Write-through stores retire once handed to the LD/ST port.
            return start + occupancy, transactions
        # A load completes when its *last* transaction returns: the sectors
        # drain through the LD/ST port at `throughput` per cycle, so the
        # serialization tail adds to the expected latency.
        return start + occupancy - 1 + latency + extra, transactions
