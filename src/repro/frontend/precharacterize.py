"""Static pre-characterization: traces -> architecture-independent tasklists.

The fully-analytical simulator tier (PPT-GPU idiom; see
``docs/analytic-tier.md``) splits modeling into two layers:

1. a **pre-characterization pass** (this module) that walks each loaded
   trace exactly once and reduces every kernel to a small, *architecture-
   independent* summary — the **tasklist**: instruction mix, per-warp
   register-dependence critical paths, coalescing totals, and sector
   reuse-distance distributions;
2. a **closed-form timing model** (:mod:`repro.simulators.swift_analytic`)
   that turns a tasklist plus a batch of GPU parameter vectors into
   predicted cycles with vectorized arithmetic.

Nothing in a tasklist depends on a :class:`GPUConfig`: dependence chains
are recorded as *term counts* (how many INT ops with latency factor 2 sit
on the critical path), not cycle counts, and memory locality is recorded
as *reuse-distance distributions*, not hit rates, so one pass serves any
number of candidate architectures.  Coalescing uses the fixed
32-byte-sector geometry every modeled GPU shares.

Tasklists are pure functions of the trace: same trace values in, same
tasklist values out, no RNG, no wall-clock, no live handles — they are
picklable and safe to ship across process boundaries (the supervisor's
``validate_picklable`` pre-flight checks every shipped payload).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

try:  # numpy is required for the analytic tier, but its absence must not
    import numpy as _np  # break `import repro` for the engine-based tiers.
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from repro.errors import SimulationError
from repro.frontend.isa import OPCODES, InstKind, MemSpace, OpcodeInfo, UnitClass
from repro.frontend.trace import ApplicationTrace, KernelTrace
from repro.memory.reuse_distance import LRUStack

#: Sector size shared by every modeled GPU (Turing/Ampere); the reuse
#: stream is tracked in sectors.
SECTOR_BYTES = 32

#: Chain-term keys that are not (unit, latency_factor) ALU terms.
BRANCH_TERM = ("branch",)
SYNC_TERM = ("sync",)
LOAD_TERM = ("load",)
STORE_TERM = ("store",)
SHARED_TERM = ("shared",)


def numpy_available() -> bool:
    """Whether the analytic tier can run at all on this install."""
    return _np is not None


def _require_numpy():
    if _np is None:
        raise SimulationError(
            "the analytic tier requires numpy; install it or use the "
            "engine-based simulators (swift-basic / swift-memory)"
        )
    return _np


def _alu_term(unit: UnitClass, latency_factor: int) -> Tuple[str, str, int]:
    return ("alu", unit.value, latency_factor)


@dataclass
class KernelTasklist:
    """Architecture-independent summary of one kernel launch.

    Warps are *in-order*: any stalled instruction blocks everything
    behind it, so per-warp timing is captured by the warp's **dependence
    skeleton** — the sequence of pricing terms plus, per instruction, the
    index of the producer it must wait for (``-1`` if none).  Warps with
    identical skeletons are deduplicated into :class:`WarpClass` groups
    (SIMT kernels typically have only a handful), and the timing model
    replays each class once as an in-order scoreboard walk, vectorized
    over the batched config axis.  ``warp_counts[w, t]`` counts all
    priced instructions of term ``chain_terms[t]`` in warp ``w`` (the
    issue-bound component).

    ``load_inst_distances`` holds, per global/local load instruction, the
    worst (largest) sector reuse-distance among its transactions
    (``inf`` = cold), sorted so hit rates for any capacity fall out of a
    ``searchsorted``; ``load_access_distances`` is the same per
    *transaction* (for bandwidth accounting).
    """

    name: str
    num_blocks: int
    warps_per_block: int
    threads_per_block: int
    shared_mem_bytes: int
    regs_per_thread: int
    num_instructions: int
    #: ALU issue counts keyed by (unit value, latency factor).
    unit_counts: Dict[Tuple[str, int], int] = field(default_factory=dict)
    ldst_insts: int = 0
    shared_insts: int = 0
    branch_insts: int = 0
    sync_insts: int = 0
    global_loads: int = 0
    global_stores: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    chain_terms: Tuple[tuple, ...] = ()
    warp_counts: object = None  # np.ndarray (num_warps, num_terms), all insts
    warp_classes: Tuple["WarpClass", ...] = ()
    load_inst_distances: object = None  # np.ndarray, sorted, inf = cold
    load_access_distances: object = None  # np.ndarray, sorted, inf = cold

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelTasklist):
            return NotImplemented
        np = _require_numpy()
        scalars = (
            "name", "num_blocks", "warps_per_block", "threads_per_block",
            "shared_mem_bytes", "regs_per_thread", "num_instructions",
            "unit_counts", "ldst_insts", "shared_insts", "branch_insts",
            "sync_insts", "global_loads", "global_stores",
            "load_transactions", "store_transactions", "chain_terms",
            "warp_classes",
        )
        return all(
            getattr(self, name) == getattr(other, name) for name in scalars
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("warp_counts",
                         "load_inst_distances", "load_access_distances")
        )


@dataclass
class ApplicationTasklist:
    """Tasklists for every kernel of one application, in launch order."""

    app_name: str
    num_instructions: int
    kernels: List[KernelTasklist] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApplicationTasklist):
            return NotImplemented
        return (
            self.app_name == other.app_name
            and self.num_instructions == other.num_instructions
            and self.kernels == other.kernels
        )


# ----------------------------------------------------------------------
# dependence skeletons


@dataclass
class WarpClass:
    """A group of warps sharing one dependence skeleton.

    ``term_seq[i]`` indexes :attr:`KernelTasklist.chain_terms` for the
    ``i``-th priced instruction; ``producer[i]`` is the position whose
    result instruction ``i`` must wait for (``-1`` if none).  The timing
    model replays the skeleton once per class as an in-order scoreboard
    walk — exact for register dependences, memory latencies priced at
    their Eq. 1 expectations — vectorized over the config axis.
    """

    count: int  # warps in the kernel with this skeleton
    term_seq: object = None  # np.ndarray (n,), indexes chain_terms
    producer: object = None  # np.ndarray (n,), position or -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WarpClass):
            return NotImplemented
        np = _require_numpy()
        return (
            self.count == other.count
            and np.array_equal(self.term_seq, other.term_seq)
            and np.array_equal(self.producer, other.producer)
        )


def _chain_term(info: OpcodeInfo) -> Optional[tuple]:
    """The pricing term an opcode contributes to a dependence chain
    (``None`` for EXIT, which costs nothing once the pipeline drained)."""
    kind = info.kind
    if kind is InstKind.EXIT:
        return None
    if kind is InstKind.BRANCH:
        return BRANCH_TERM
    if kind in (InstKind.BARRIER, InstKind.MEMBAR):
        return SYNC_TERM
    if info.is_memory:
        if info.mem_space is MemSpace.SHARED:
            return SHARED_TERM
        if kind is InstKind.STORE:
            return STORE_TERM
        return LOAD_TERM  # atomics wait for their result like loads
    return _alu_term(info.unit, info.latency_factor)


#: The term is a property of the opcode, so it is resolved once per
#: mnemonic here and the walk only looks it up per dynamic instruction.
_OPCODE_TERMS: Dict[str, Optional[tuple]] = {
    name: _chain_term(info) for name, info in OPCODES.items()
}


def _walk_warp(
    warp, stream: array, lanes: List[int], stores: List[bool]
) -> Tuple[Tuple[tuple, ...], Tuple[int, ...]]:
    """One pass over a warp: its dependence skeleton ``(terms, producers)``.

    Warps issue strictly in order, so per-warp solo time is fully
    determined by each instruction's pricing term plus the most
    constraining producer it waits for: the latest writer of any of its
    source/destination registers, preferring memory-class writers (their
    latencies dominate).  Barriers and membars drain the pipeline, so
    they wait on the most recent memory-class instruction (or, failing
    that, the immediately preceding instruction) even without register
    operands.  EXIT is unpriced — the timing model's final drain waits
    for every producer's completion instead.

    The warp's global/local memory instructions go, in program order, to
    the kernel's sector stream: their addresses onto ``stream``, their
    address count onto ``lanes`` and whether they store onto ``stores``.
    """
    last_writer: Dict[int, int] = {}
    writer_of = last_writer.get
    terms: List[tuple] = []
    producers: List[int] = []
    # Per position: a memory-class term (load or shared), whose producer
    # latencies dominate and which barriers drain.
    memory_at: List[bool] = []
    last_memory = -1  # position of the most recent memory-class inst
    position = -1
    for inst in warp.instructions:
        term = _OPCODE_TERMS[inst.opcode]
        if term is None:  # EXIT
            continue
        position += 1
        producer = -1
        if term is SYNC_TERM:
            producer = last_memory if last_memory >= 0 else position - 1
        else:
            memory_producer = -1
            # Sources, then destinations (WAW), without building their
            # concatenation per instruction.
            for reg in inst.src_regs:
                writer = writer_of(reg, -1)
                if writer > producer:
                    producer = writer
                if writer > memory_producer and memory_at[writer]:
                    memory_producer = writer
            for reg in inst.dest_regs:
                writer = writer_of(reg, -1)
                if writer > producer:
                    producer = writer
                if writer > memory_producer and memory_at[writer]:
                    memory_producer = writer
            if memory_producer >= 0:
                producer = memory_producer
        terms.append(term)
        producers.append(producer)
        is_memory = term is LOAD_TERM or term is SHARED_TERM
        memory_at.append(is_memory)
        if is_memory:
            last_memory = position
        for reg in inst.dest_regs:
            last_writer[reg] = position
        if term is LOAD_TERM or term is STORE_TERM:
            addresses = inst.addresses
            stream.extend(addresses)
            lanes.append(len(addresses))
            stores.append(term is STORE_TERM)
    return tuple(terms), tuple(producers)


def first_touch(sectors, inst_ids):
    """Mask of the elements of ``sectors`` that are the first touch of
    their sector within their instruction (``inst_ids``, non-decreasing).

    Per instruction, ``sectors[mask]`` equals
    :func:`~repro.memory.access.touched_sectors` of its addresses: the
    distinct sectors in first-touch order.
    """
    np = _np
    keep = np.ones(sectors.shape[0], dtype=bool)
    if sectors.shape[0] > 1:
        # A stable sort by (instruction, sector) puts each sector's first
        # touch at the head of its run.
        order = np.lexsort((sectors, inst_ids))
        ordered_sectors = sectors[order]
        ordered_insts = inst_ids[order]
        keep[order[1:]] = (ordered_sectors[1:] != ordered_sectors[:-1]) | (
            ordered_insts[1:] != ordered_insts[:-1]
        )
    return keep


# ----------------------------------------------------------------------
# the pass


def _characterize_kernel(kernel: KernelTrace) -> KernelTasklist:
    np = _require_numpy()
    blocks = kernel.blocks
    tasklist = KernelTasklist(
        name=kernel.name,
        num_blocks=len(blocks),
        warps_per_block=max([len(block.warps) for block in blocks]),
        threads_per_block=max([block.num_threads for block in blocks]),
        shared_mem_bytes=max([block.shared_mem_bytes for block in blocks]),
        regs_per_thread=max([block.regs_per_thread for block in blocks]),
        num_instructions=kernel.num_instructions,
    )
    stream = array("Q")  # every global access's addresses, in launch order
    lanes: List[int] = []
    stores: List[bool] = []
    skeletons: Dict[Tuple[tuple, tuple], int] = {}  # skeleton -> warp count
    warp_rows: List[Dict[tuple, int]] = []
    for block in blocks:
        for warp in block.warps:
            skeleton = _walk_warp(warp, stream, lanes, stores)
            skeletons[skeleton] = skeletons.get(skeleton, 0) + 1
            warp_rows.append(Counter(skeleton[0]))
    _sector_stream(tasklist, stream, lanes, stores)
    chain_terms = sorted(set().union(*warp_rows))
    term_index = {term: i for i, term in enumerate(chain_terms)}
    warp_counts = np.zeros((len(warp_rows), len(chain_terms)), dtype=np.int64)
    for row_number, row in enumerate(warp_rows):
        for term, count in row.items():
            warp_counts[row_number, term_index[term]] = count
    # Instruction-class totals are column sums of the per-warp rows.
    totals = dict(zip(chain_terms, warp_counts.sum(axis=0).tolist()))
    tasklist.branch_insts = totals.pop(BRANCH_TERM, 0)
    tasklist.sync_insts = totals.pop(SYNC_TERM, 0)
    tasklist.shared_insts = totals.pop(SHARED_TERM, 0)
    tasklist.ldst_insts = totals.pop(LOAD_TERM, 0) + totals.pop(STORE_TERM, 0)
    tasklist.unit_counts = {
        (unit_value, factor): count
        for (__, unit_value, factor), count in totals.items()
    }
    tasklist.chain_terms = tuple(chain_terms)
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
    return tasklist


def _sector_stream(tasklist: KernelTasklist, stream: array, lanes: List[int],
                   stores: List[bool]) -> None:
    """Coalesce the kernel's global accesses to sectors and walk them
    through one LRU stack, in launch order (one kernel-wide stream).

    Fills the load/store instruction and transaction counts and the two
    reuse-distance distributions of ``tasklist``.
    """
    np = _np
    lane_counts = np.asarray(lanes, dtype=np.int64)
    is_store = np.asarray(stores, dtype=bool)
    sectors = np.frombuffer(stream, dtype=np.uint64) // SECTOR_BYTES
    inst_ids = np.repeat(np.arange(lane_counts.shape[0]), lane_counts)
    keep = first_touch(sectors, inst_ids)
    sectors = sectors[keep]
    transactions = np.bincount(inst_ids[keep], minlength=lane_counts.shape[0])
    stack = LRUStack()
    # None (a cold miss) becomes NaN here, then the infinite distance.
    distances = np.array(
        list(map(stack.access, sectors.tolist())), dtype=np.float64
    )
    distances[np.isnan(distances)] = math.inf
    load_transactions = transactions[~is_store]
    loads = load_transactions.shape[0]
    tasklist.global_loads = loads
    tasklist.global_stores = lane_counts.shape[0] - loads
    tasklist.load_transactions = int(load_transactions.sum())
    tasklist.store_transactions = int(transactions[is_store].sum())
    load_distances = distances[~np.repeat(is_store, transactions)]
    # Every load has at least one transaction, so the segment starts
    # strictly increase; an instruction's distance is its worst one.
    starts = np.cumsum(load_transactions) - load_transactions
    tasklist.load_inst_distances = np.sort(
        np.maximum.reduceat(load_distances, starts)
    )
    tasklist.load_access_distances = np.sort(load_distances)


#: Memoized tasklists, keyed weakly on the trace object.  Purely a time
#: saver: tasklists are value-deterministic, so a re-loaded (different
#: identity, equal value) trace characterizes to an equal tasklist.
_TASKLIST_MEMO: "WeakKeyDictionary[ApplicationTrace, ApplicationTasklist]" = (
    WeakKeyDictionary()
)


def precharacterize(app: ApplicationTrace) -> ApplicationTasklist:
    """Reduce ``app`` to its architecture-independent tasklist (memoized
    per trace object; a pure function of the trace values)."""
    _require_numpy()
    cached = _TASKLIST_MEMO.get(app)
    if cached is not None:
        return cached
    tasklist = ApplicationTasklist(
        app_name=app.name,
        num_instructions=app.num_instructions,
        kernels=[_characterize_kernel(kernel) for kernel in app.kernels],
    )
    _TASKLIST_MEMO[app] = tasklist
    return tasklist


def warps_in_kernel(tasklist: KernelTasklist) -> int:
    """Total warps launched by the kernel (for IPC-style sanity checks)."""
    return int(tasklist.warp_counts.shape[0]) if tasklist.warp_counts is not None else 0
