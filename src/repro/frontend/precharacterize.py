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
picklable and safe to ship across process boundaries (the sweep-payload
lint family covers this module).
"""

from __future__ import annotations

import math
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
from repro.memory.access import touched_sectors
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

#: Terms whose producers carry long (memory-class) latencies; barriers
#: drain these before proceeding.
_MEMORY_TERMS = (LOAD_TERM, SHARED_TERM)


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


def _walk_warp(warp) -> Tuple[Tuple[tuple, ...], Tuple[int, ...], List[tuple]]:
    """One pass over a warp: (terms, producer positions, global accesses).

    ``(terms, producers)`` is the warp's dependence skeleton.  Warps
    issue strictly in order, so per-warp solo time is fully determined by
    each instruction's pricing term plus the most constraining producer
    it waits for: the latest writer of any of its source/destination
    registers, preferring memory-class writers (their latencies
    dominate).  Barriers and membars drain the pipeline, so they wait on
    the most recent memory-class instruction (or, failing that, the
    immediately preceding instruction) even without register operands.
    EXIT is unpriced — the timing model's final drain waits for every
    producer's completion instead.

    The third element lists the warp's global/local memory instructions
    in program order as ``(is_store, sector numbers in first-touch
    order)`` — the warp's share of the kernel's reuse-distance stream.
    """
    last_writer: Dict[int, int] = {}
    terms: List[tuple] = []
    producers: List[int] = []
    accesses: List[tuple] = []
    last_memory = -1  # position of the most recent memory-class inst
    for inst in warp.instructions:
        term = _OPCODE_TERMS[inst.opcode]
        if term is None:  # EXIT
            continue
        position = len(terms)
        producer = -1
        if term is SYNC_TERM:
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
        if term is LOAD_TERM or term is STORE_TERM:
            accesses.append(
                (term is STORE_TERM, touched_sectors(inst.addresses, SECTOR_BYTES))
            )
    return tuple(terms), tuple(producers), accesses


# ----------------------------------------------------------------------
# the pass


def _characterize_kernel(kernel: KernelTrace) -> KernelTasklist:
    np = _require_numpy()
    tasklist = KernelTasklist(
        name=kernel.name,
        num_blocks=len(kernel.blocks),
        warps_per_block=max(len(block.warps) for block in kernel.blocks),
        threads_per_block=max(block.num_threads for block in kernel.blocks),
        shared_mem_bytes=max(block.shared_mem_bytes for block in kernel.blocks),
        regs_per_thread=max(block.regs_per_thread for block in kernel.blocks),
        num_instructions=kernel.num_instructions,
    )
    stack = LRUStack()  # one kernel-wide sector stream (see the docs)
    inst_distances: List[float] = []
    access_distances: List[float] = []
    skeletons: Dict[Tuple[tuple, tuple], int] = {}  # skeleton -> warp count
    warp_rows: List[Dict[tuple, int]] = []
    for block in kernel.blocks:
        for warp in block.warps:
            terms, producers, accesses = _walk_warp(warp)
            skeleton = (terms, producers)
            skeletons[skeleton] = skeletons.get(skeleton, 0) + 1
            warp_rows.append(Counter(terms))
            for is_store, sectors in accesses:
                if is_store:
                    for sector in sectors:
                        stack.access(sector)
                    tasklist.global_stores += 1
                    tasklist.store_transactions += len(sectors)
                    continue
                worst = 0.0
                for sector in sectors:
                    distance = stack.access(sector)
                    value = math.inf if distance is None else float(distance)
                    access_distances.append(value)
                    if value > worst:
                        worst = value
                tasklist.global_loads += 1
                tasklist.load_transactions += len(sectors)
                inst_distances.append(worst)
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
    tasklist.load_inst_distances = np.sort(
        np.asarray(inst_distances, dtype=np.float64)
    )
    tasklist.load_access_distances = np.sort(
        np.asarray(access_distances, dtype=np.float64)
    )
    return tasklist


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
