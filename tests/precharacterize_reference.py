"""Frozen reference for the pre-characterization pass.

A copy of the implementation the fused single-walk pass replaced: two
walks per warp (``_warp_skeleton``, then the counting loop),
``_chain_term`` resolved per dynamic instruction, ``coalesce`` building a
``SectorTransaction`` per sector, and the reuse stack on a separate
``_Fenwick`` class keyed by ``(line, sector)``.  It exists only so that
``test_precharacterize_equivalence.py`` can hold the live pass to it; do
not optimise or otherwise edit it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.precharacterize import (
    BRANCH_TERM,
    LOAD_TERM,
    SHARED_TERM,
    STORE_TERM,
    SYNC_TERM,
    ApplicationTasklist,
    KernelTasklist,
    WarpClass,
)
from repro.frontend.trace import ApplicationTrace, KernelTrace
from repro.memory.access import coalesce

LINE_BYTES = 128
SECTOR_BYTES = 32

_MEMORY_TERMS = (LOAD_TERM, SHARED_TERM)


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    def __init__(self) -> None:
        self._tree: List[int] = [0]

    def grow(self) -> None:
        """Append position n+1 holding value zero.

        ``tree[i]`` covers the range ``(i - lowbit(i), i]``, which equals
        ``a[i]`` plus the adjacent sub-ranges ``tree[i - 2^k]`` for all
        ``2^k < lowbit(i)`` — with ``a[i] == 0`` on append.
        """
        index = len(self._tree)
        total = 0
        step = 1
        low_bit = index & -index
        while step < low_bit:
            total += self._tree[index - step]
            step <<= 1
        self._tree.append(total)

    def add(self, index: int, delta: int) -> None:
        while index < len(self._tree):
            self._tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total


class _LRUStack:
    """Stack-distance tracker for one cache level."""

    def __init__(self) -> None:
        self._fenwick = _Fenwick()
        self._last_seen: Dict[Tuple[int, int], int] = {}
        self._time = 0

    def access(self, block: Tuple[int, int]) -> Optional[int]:
        """Record an access; return its stack distance (None = cold miss)."""
        self._time += 1
        self._fenwick.grow()
        last = self._last_seen.get(block)
        distance: Optional[int]
        if last is None:
            distance = None
        else:
            # Distinct blocks touched since the previous access.
            distance = self._fenwick.prefix_sum(self._time - 1) - self._fenwick.prefix_sum(last)
            self._fenwick.add(last, -1)
        self._fenwick.add(self._time, 1)
        self._last_seen[block] = self._time
        return distance


def _warp_skeleton(warp) -> Tuple[Tuple[tuple, ...], Tuple[int, ...]]:
    """One warp's dependence skeleton: (terms, producer positions).

    Warps issue strictly in order, so per-warp solo time is fully
    determined by each instruction's pricing term plus the most
    constraining producer it waits for: the latest writer of any of its
    source/destination registers, preferring memory-class writers (their
    latencies dominate).  Barriers and membars drain the pipeline, so
    they wait on the most recent memory-class instruction (or, failing
    that, the immediately preceding instruction) even without register
    operands.  EXIT is unpriced — the timing model's final drain waits
    for every producer's completion instead.
    """
    last_writer: Dict[int, int] = {}
    terms: List[tuple] = []
    producers: List[int] = []
    last_memory = -1  # position of the most recent memory-class inst
    for inst in warp.instructions:
        term = _chain_term(inst)
        if term is None:  # EXIT
            continue
        position = len(terms)
        producer = -1
        if inst.kind in (InstKind.BARRIER, InstKind.MEMBAR):
            producer = last_memory if last_memory >= 0 else position - 1
        else:
            memory_producer = -1
            for reg in inst.src_regs + inst.dest_regs:
                writer = last_writer.get(reg, -1)
                if writer > producer:
                    producer = writer
                if writer >= 0 and terms[writer] in _MEMORY_TERMS:
                    memory_producer = max(memory_producer, writer)
            if memory_producer >= 0:
                producer = memory_producer
        terms.append(term)
        producers.append(producer)
        if term in _MEMORY_TERMS:
            last_memory = position
        for reg in inst.dest_regs:
            last_writer[reg] = position
    return tuple(terms), tuple(producers)


def _chain_term(inst) -> tuple:
    """The pricing term an instruction contributes to a dependence chain
    (``None`` for EXIT, which costs nothing once the pipeline drained)."""
    kind = inst.kind
    if kind is InstKind.EXIT:
        return None
    if kind is InstKind.BRANCH:
        return BRANCH_TERM
    if kind in (InstKind.BARRIER, InstKind.MEMBAR):
        return SYNC_TERM
    if inst.is_memory:
        if inst.mem_space is MemSpace.SHARED:
            return SHARED_TERM
        if kind is InstKind.STORE:
            return STORE_TERM
        return LOAD_TERM
    return ("alu", inst.unit.value, inst.latency_factor)


def _characterize_kernel(kernel: KernelTrace) -> KernelTasklist:
    tasklist = KernelTasklist(
        name=kernel.name,
        num_blocks=len(kernel.blocks),
        warps_per_block=max(len(block.warps) for block in kernel.blocks),
        threads_per_block=max(block.num_threads for block in kernel.blocks),
        shared_mem_bytes=max(block.shared_mem_bytes for block in kernel.blocks),
        regs_per_thread=max(block.regs_per_thread for block in kernel.blocks),
        num_instructions=kernel.num_instructions,
    )
    stack = _LRUStack()  # one kernel-wide sector stream (see the docs)
    inst_distances: List[float] = []
    access_distances: List[float] = []
    skeletons: Dict[Tuple[tuple, tuple], int] = {}  # skeleton -> warp count
    warp_rows: List[Dict[tuple, int]] = []
    for block in kernel.blocks:
        for warp in block.warps:
            skeleton = _warp_skeleton(warp)
            skeletons[skeleton] = skeletons.get(skeleton, 0) + 1
            warp_row: Dict[tuple, int] = {}
            warp_rows.append(warp_row)
            for inst in warp.instructions:
                kind = inst.kind
                if kind is InstKind.EXIT:
                    continue
                term = _chain_term(inst)
                warp_row[term] = warp_row.get(term, 0) + 1
                if kind is InstKind.BRANCH:
                    tasklist.branch_insts += 1
                    continue
                if kind in (InstKind.BARRIER, InstKind.MEMBAR):
                    tasklist.sync_insts += 1
                    continue
                if inst.is_memory:
                    if inst.mem_space is MemSpace.SHARED:
                        tasklist.shared_insts += 1
                        continue
                    tasklist.ldst_insts += 1
                    transactions = coalesce(
                        inst.addresses, LINE_BYTES, SECTOR_BYTES
                    )
                    is_store = kind is InstKind.STORE
                    worst = 0.0
                    for tx in transactions:
                        distance = stack.access((tx.line_addr, tx.sector))
                        value = math.inf if distance is None else float(distance)
                        if not is_store:
                            access_distances.append(value)
                            worst = max(worst, value)
                    if is_store:
                        tasklist.global_stores += 1
                        tasklist.store_transactions += len(transactions)
                    else:
                        tasklist.global_loads += 1
                        tasklist.load_transactions += len(transactions)
                        inst_distances.append(worst)
                    continue
                key = (inst.unit.value, inst.latency_factor)
                tasklist.unit_counts[key] = tasklist.unit_counts.get(key, 0) + 1
    terms = sorted({term for row in warp_rows for term in row})
    term_index = {term: i for i, term in enumerate(terms)}
    warp_counts = np.zeros((len(warp_rows), len(terms)), dtype=np.int64)
    for row_number, row in enumerate(warp_rows):
        for term, count in row.items():
            warp_counts[row_number, term_index[term]] = count
    tasklist.chain_terms = tuple(terms)
    tasklist.warp_counts = warp_counts
    tasklist.warp_classes = tuple(
        WarpClass(
            count=count,
            term_seq=np.asarray(
                [term_index[term] for term in skeleton_terms], dtype=np.int64
            ),
            producer=np.asarray(skeleton_producers, dtype=np.int64),
        )
        for (skeleton_terms, skeleton_producers), count in sorted(
            skeletons.items()
        )
    )
    tasklist.load_inst_distances = np.sort(
        np.asarray(inst_distances, dtype=np.float64)
    )
    tasklist.load_access_distances = np.sort(
        np.asarray(access_distances, dtype=np.float64)
    )
    return tasklist


def reference_precharacterize(app: ApplicationTrace) -> ApplicationTasklist:
    """The parent pass, unmemoised."""
    return ApplicationTasklist(
        app_name=app.name,
        num_instructions=app.num_instructions,
        kernels=[_characterize_kernel(kernel) for kernel in app.kernels],
    )
