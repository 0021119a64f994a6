"""Reuse-distance profiling for analytical hit rates.

The Eq. 1 analytical memory model needs per-PC hit rates "obtained using
a reuse distance tool or cache simulator" (paper §III-D2).  This module
is the reuse-distance tool: it measures, for every memory-instruction PC,
the stack distance of each sector access and classifies it against the
L1 and L2 capacities under the classic fully-associative LRU
approximation of reuse-distance theory.

Stack distances are computed with the standard O(n log n) algorithm: a
Fenwick tree over access timestamps counts the *distinct* blocks touched
since the previous access to the same block.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import KernelTrace
from repro.memory.access import coalesce


class _LRUStack:
    """Stack-distance tracker for one cache level.

    A Fenwick tree (binary indexed tree, 1-based) over access timestamps
    holds a one at the latest access of every block seen so far and a zero
    everywhere else, so the ones after a block's previous access count
    the distinct blocks touched since.  ``tree[i]`` sums the timestamps
    ``(i - lowbit(i), i]``.
    """

    def __init__(self) -> None:
        self._tree: List[int] = [0]
        self._last_seen: Dict[Hashable, int] = {}

    def access(self, block: Hashable) -> Optional[int]:
        """Record an access; return its stack distance (None = cold miss).

        ``block`` is any hashable block identity (a sector number, a
        ``(line, sector)`` pair).  The tree's three operations are inlined
        here: this runs once per sector access of a whole application.
        """
        tree = self._tree
        last_seen = self._last_seen
        now = len(tree)
        last = last_seen.get(block)
        last_seen[block] = now
        distance: Optional[int]
        if last is None:
            distance = None
        else:
            # Every block seen holds exactly one mark, so the marks after
            # ``last`` are the blocks seen minus the prefix sum up to it.
            distance = len(last_seen)
            index = last
            while index:
                distance -= tree[index]
                index &= index - 1
            # The block's mark moves to ``now``: clear it at ``last``.
            index = last
            while index < now:
                tree[index] -= 1
                index += index & -index
        # Append position ``now`` holding this access's mark: the new node
        # is that one plus the adjacent sub-ranges ``tree[now - 2^k]`` for
        # all ``2^k < lowbit(now)``.
        total = 1
        step = 1
        low_bit = now & -now
        while step < low_bit:
            total += tree[now - step]
            step <<= 1
        tree.append(total)
        return distance


#: Public name for standalone stack-distance tracking (the analytic
#: tier's pre-characterization pass runs one per kernel).
LRUStack = _LRUStack


class PCProfile:
    """Per-PC access classification tallies.

    Two granularities are tracked: per sector access (``l1_hits`` /
    ``l2_hits`` / ``dram_accesses`` against ``accesses``) and per
    *instruction*, classified by its slowest transaction (``inst_l1`` /
    ``inst_l2`` / ``inst_dram``).  A warp load completes when its last
    sector returns, so Eq. 1's hit fractions use the instruction-level
    tallies when available — one divergent lane reaching DRAM makes the
    whole instruction DRAM-bound.  The access-level tallies remain the
    fallback (and the classical per-access reading of Eq. 1).
    """

    __slots__ = (
        "accesses", "l1_hits", "l2_hits", "dram_accesses",
        "transactions", "instructions", "inst_l1", "inst_l2", "inst_dram",
    )

    def __init__(self) -> None:
        self.accesses = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.dram_accesses = 0
        self.transactions = 0
        self.instructions = 0
        self.inst_l1 = 0
        self.inst_l2 = 0
        self.inst_dram = 0

    def note_instruction_level(self, worst_level: int) -> None:
        """Record one instruction's slowest transaction level
        (0 = L1 hit, 1 = L2 hit, 2 = DRAM)."""
        if worst_level <= 0:
            self.inst_l1 += 1
        elif worst_level == 1:
            self.inst_l2 += 1
        else:
            self.inst_dram += 1

    @property
    def _inst_total(self) -> int:
        return self.inst_l1 + self.inst_l2 + self.inst_dram

    @property
    def r_l1(self) -> float:
        if self._inst_total:
            return self.inst_l1 / self._inst_total
        return self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def r_l2(self) -> float:
        if self._inst_total:
            return self.inst_l2 / self._inst_total
        return self.l2_hits / self.accesses if self.accesses else 0.0

    @property
    def r_dram(self) -> float:
        if self._inst_total:
            return self.inst_dram / self._inst_total
        return self.dram_accesses / self.accesses if self.accesses else 1.0

    @property
    def avg_transactions(self) -> float:
        return self.transactions / self.instructions if self.instructions else 1.0


class ReuseDistanceProfiler:
    """Classifies every global memory access of a kernel by reuse distance.

    Blocks are 32-byte sectors; an access hits a level when its stack
    distance is below that level's capacity in sectors (fully-associative
    LRU approximation — hence this tool models LRU only, which is exactly
    the analytical-model limitation the paper's motivation discusses).
    Each SM's L1 sees only the blocks scheduled to it (round-robin block
    assignment); all L1 misses feed one shared L2 stack in program order.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._l1_capacity = config.l1.size_bytes // config.l1.sector_bytes
        self._l2_capacity = config.l2.size_bytes // config.l2.sector_bytes
        self._l1_stacks: List[_LRUStack] = []
        self._l2_stack = _LRUStack()

    def profile_many(self, kernels) -> List[Dict[int, PCProfile]]:
        """Profile a kernel sequence with cache state carried across
        launches (as the simulated caches do)."""
        return [self.profile(kernel, keep_state=True) for kernel in kernels]

    def profile(self, kernel: KernelTrace, keep_state: bool = False) -> Dict[int, PCProfile]:
        """Return per-PC tallies for every global/local memory instruction.

        With ``keep_state`` the LRU stacks persist into the next call,
        modeling cross-kernel cache warmth.
        """
        num_sms = self.config.num_sms
        wanted_l1s = min(num_sms, len(kernel.blocks))
        if not keep_state:
            self._l1_stacks = []
            self._l2_stack = _LRUStack()
        while len(self._l1_stacks) < wanted_l1s:
            self._l1_stacks.append(_LRUStack())
        l1_stacks = self._l1_stacks[:max(1, wanted_l1s)]
        l2_stack = self._l2_stack
        profiles: Dict[int, PCProfile] = {}
        line_bytes = self.config.l1.line_bytes
        sector_bytes = self.config.l1.sector_bytes
        for block in kernel.blocks:
            l1_stack = l1_stacks[block.block_id % len(l1_stacks)]
            for warp in block.warps:
                for inst in warp.instructions:
                    if not inst.is_memory or inst.mem_space is MemSpace.SHARED:
                        continue
                    profile = profiles.get(inst.pc)
                    if profile is None:
                        profile = profiles[inst.pc] = PCProfile()
                    transactions = coalesce(inst.addresses, line_bytes, sector_bytes)
                    profile.instructions += 1
                    profile.transactions += len(transactions)
                    is_store = inst.kind is not InstKind.LOAD
                    worst = 0
                    for transaction in transactions:
                        block_key = (transaction.line_addr, transaction.sector)
                        profile.accesses += 1
                        distance = l1_stack.access(block_key)
                        if (
                            not is_store
                            and distance is not None
                            and distance < self._l1_capacity
                        ):
                            profile.l1_hits += 1
                            continue
                        l2_distance = l2_stack.access(block_key)
                        if is_store or (
                            l2_distance is not None
                            and l2_distance < self._l2_capacity
                        ):
                            profile.l2_hits += 1
                            if worst < 1:
                                worst = 1
                        else:
                            profile.dram_accesses += 1
                            worst = 2
                    profile.note_instruction_level(worst)
        return profiles
