"""In-memory application traces.

An application trace is a list of kernels; a kernel is a grid of thread
blocks; a block is a list of warps; a warp is a list of
:class:`TraceInstruction`.  Traces are architecture-independent
(paper §III-A): the same trace drives any simulated GPU configuration.

:class:`TraceInstruction` is the hot object of the whole simulator — it
uses ``__slots__`` and resolves its :class:`~repro.frontend.isa.OpcodeInfo`
once at construction so modeling code never re-parses mnemonics.

A trace holds each thing once.  Instructions are immutable value
objects: nothing stores to one after construction, ``==`` and ``hash``
are by value, and the warps of a kernel run the same code, so both
producers (:class:`~repro.tracegen.base.KernelBuilder` and the parser in
:mod:`~repro.frontend.trace_io`) let them share one object per distinct
address-free instruction.  Do not tell instructions apart by identity.

``addresses`` is a read-only integer sequence — sized, indexable,
iterable — whose storage :class:`TraceInstruction` alone decides, by
value, whoever built it (generator, trace parser, NVBit importer, user
code): a memory instruction whose addresses form an arithmetic run
(nonzero step; one lane is ``range(a, a + 1)``) holds that ``range``,
any other memory instruction one ``array("Q")``, and an address-free
instruction the empty tuple.  Most warp accesses are runs (coalesced,
strided, stencil, shared-offset), so most hold three integers instead
of 8 bytes per lane.  Because the form follows from the values, two
equal address lists are always stored alike, and ``==``, pickling and
iteration see values only.  Never equal to a tuple or list: compare
``list(inst.addresses)``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.frontend.isa import InstKind, MemSpace, UnitClass, opcode_info
from repro.utils.bitops import bit_count, full_mask

#: Threads per warp.
WARP_SIZE = 32

_FULL_WARP_MASK = full_mask(WARP_SIZE)


#: One past the largest address: every address is an unsigned 64-bit
#: integer.
_ADDRESS_LIMIT = 1 << 64


def _address_fault(addresses: Sequence[int]) -> str:
    """Why an address list that ``array("Q")`` refused is not a trace's.

    A negative address is named apart from the rest (too large, not an
    integer); the list is never empty here, the mask has a lane set."""
    try:
        if min(addresses) < 0:
            return "negative address"
    except TypeError:
        pass
    return "an address is not a 64-bit integer"


def _as_run(values: List[int]) -> Optional[range]:
    """``values``, plain ints, as the canonical ``range`` they spell, or
    ``None``.

    Canonical: nonzero step and ``stop = start + len * step``, a single
    lane stepping by 1.  The two ends are tested before any lane is
    compared, so most lists that are not runs cost two subtractions."""
    count = len(values)
    first = values[0]
    step = values[1] - first if count > 1 else 1
    if step and values[-1] - first == (count - 1) * step:
        run = range(first, first + count * step, step)
        if count < 3 or list(run) == values:
            return run
    return None


def _stored_addresses(addresses: Sequence[int]):
    """The one stored form of a memory instruction's (non-empty) address
    list: the canonical ``range`` if it is a run, else an ``array("Q")``.

    Raises ``ValueError`` with the fault when an address is negative, too
    large or not an integer: the same words whichever form it arrived
    in."""
    if type(addresses) is range:
        count = len(addresses)
        step = addresses.step if count > 1 else 1
        run = addresses
        if run.stop != run.start + count * step or run.step != step:
            run = range(run.start, run.start + count * step, step)
    else:
        values = addresses if type(addresses) is list else list(addresses)
        try:
            plain = type(sum(values)) is int
        except TypeError:
            plain = False
        if not plain:
            # Not every lane is a plain int (``8.0``, ``"0x10"``, a numpy
            # integer): ``array("Q")`` refuses the list or reads it back
            # as plain ints.
            try:
                values = array("Q", values).tolist()
            except (OverflowError, TypeError):
                raise ValueError(_address_fault(values)) from None
        run = _as_run(values)
        if run is None:
            try:
                return array("Q", values)
            except OverflowError:
                raise ValueError(_address_fault(values)) from None
    low, high = (run[0], run[-1]) if run.step > 0 else (run[-1], run[0])
    if low < 0:
        raise ValueError("negative address")
    if high >= _ADDRESS_LIMIT:
        raise ValueError("an address is not a 64-bit integer")
    return run


class TraceInstruction:
    """One dynamic warp instruction.

    ``addresses`` holds one byte address per *active* thread (in ascending
    lane order) for memory instructions, exactly as an NVBit memory trace
    records them; it is empty for non-memory instructions and for
    shared-memory instructions it holds shared-memory offsets.  Every
    address is an unsigned 64-bit integer; anything else is a
    :class:`~repro.errors.TraceError`.  Any integer sequence may be
    passed; what is stored is decided here, by value: the canonical
    ``range`` when the addresses form an arithmetic run, else an
    ``array("Q")`` (see the module docstring).
    """

    __slots__ = (
        "pc", "opcode", "info", "dest_regs", "src_regs", "active_mask",
        "addresses", "kind", "unit", "mem_space", "is_memory",
        "latency_factor", "active_threads",
    )

    def __init__(
        self,
        pc: int,
        opcode: str,
        dest_regs: Sequence[int] = (),
        src_regs: Sequence[int] = (),
        active_mask: int = _FULL_WARP_MASK,
        addresses: Sequence[int] = (),
    ) -> None:
        info = opcode_info(opcode)
        if pc < 0:
            raise TraceError(f"negative PC {pc}")
        if not 0 < active_mask <= _FULL_WARP_MASK:
            raise TraceError(f"active mask {active_mask:#x} out of range at pc {pc:#x}")
        active_threads = (
            WARP_SIZE if active_mask == _FULL_WARP_MASK else bit_count(active_mask)
        )
        is_memory = info.is_memory
        if is_memory:
            if len(addresses) != active_threads:
                raise TraceError(
                    f"{opcode} at pc {pc:#x}: {len(addresses)} addresses for "
                    f"{active_threads} active threads"
                )
            try:
                addresses = _stored_addresses(addresses)
            except ValueError as fault:
                raise TraceError(f"{opcode} at pc {pc:#x}: {fault}") from None
        elif addresses:
            raise TraceError(f"{opcode} at pc {pc:#x} carries addresses but is not memory")
        else:
            addresses = ()
        self.pc = pc
        self.opcode = opcode
        self.info = info
        self.dest_regs = tuple(dest_regs)
        self.src_regs = tuple(src_regs)
        self.active_mask = active_mask
        self.addresses = addresses
        # Flattened from ``info`` — these are read millions of times on
        # the simulators' hot paths, where attribute loads beat properties.
        self.kind = info.kind
        self.unit = info.unit
        self.mem_space = info.mem_space
        self.is_memory = is_memory
        self.latency_factor = info.latency_factor
        self.active_threads = active_threads

    def __repr__(self) -> str:
        return (
            f"TraceInstruction(pc={self.pc:#x}, opcode={self.opcode!r}, "
            f"dest={self.dest_regs}, src={self.src_regs}, "
            f"mask={self.active_mask:#010x}, n_addr={len(self.addresses)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceInstruction):
            return NotImplemented
        return (
            self.pc == other.pc
            and self.opcode == other.opcode
            and self.dest_regs == other.dest_regs
            and self.src_regs == other.src_regs
            and self.active_mask == other.active_mask
            and self.addresses == other.addresses
        )

    def __hash__(self) -> int:
        return hash((self.pc, self.opcode, self.dest_regs, self.src_regs, self.active_mask))


class WarpTrace:
    """The dynamic instruction stream of one warp."""

    __slots__ = ("warp_id", "instructions")

    def __init__(self, warp_id: int, instructions: Sequence[TraceInstruction]) -> None:
        if warp_id < 0:
            raise TraceError(f"negative warp id {warp_id}")
        instructions = list(instructions)
        if not instructions:
            raise TraceError(f"warp {warp_id} has no instructions")
        if instructions[-1].kind is not InstKind.EXIT:
            raise TraceError(f"warp {warp_id} does not end with EXIT")
        for position, inst in enumerate(instructions[:-1]):
            if inst.kind is InstKind.EXIT:
                raise TraceError(
                    f"warp {warp_id}: EXIT at position {position} is not last"
                )
        self.warp_id = warp_id
        self.instructions = instructions

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[TraceInstruction]:
        return iter(self.instructions)

    @property
    def barrier_count(self) -> int:
        """Number of BAR.SYNC instructions (must match across a block)."""
        return sum(1 for inst in self.instructions if inst.kind is InstKind.BARRIER)


class BlockTrace:
    """One thread block (CTA): warps plus per-block resource needs."""

    __slots__ = ("block_id", "warps", "shared_mem_bytes", "regs_per_thread")

    def __init__(
        self,
        block_id: int,
        warps: Sequence[WarpTrace],
        shared_mem_bytes: int = 0,
        regs_per_thread: int = 32,
    ) -> None:
        if block_id < 0:
            raise TraceError(f"negative block id {block_id}")
        warps = list(warps)
        if not warps:
            raise TraceError(f"block {block_id} has no warps")
        warp_ids = [w.warp_id for w in warps]
        if warp_ids != list(range(len(warps))):
            raise TraceError(f"block {block_id}: warp ids must be 0..n-1, got {warp_ids}")
        barrier_counts = {w.barrier_count for w in warps}
        if len(barrier_counts) > 1:
            raise TraceError(
                f"block {block_id}: warps disagree on barrier count {sorted(barrier_counts)}"
            )
        if shared_mem_bytes < 0:
            raise TraceError("shared memory cannot be negative")
        if regs_per_thread < 1:
            raise TraceError("regs_per_thread must be >= 1")
        self.block_id = block_id
        self.warps = warps
        self.shared_mem_bytes = shared_mem_bytes
        self.regs_per_thread = regs_per_thread

    def __len__(self) -> int:
        return len(self.warps)

    @property
    def num_threads(self) -> int:
        return len(self.warps) * WARP_SIZE

    @property
    def num_instructions(self) -> int:
        return sum(len(w) for w in self.warps)


class KernelTrace:
    """One kernel launch: a grid of blocks.

    Blocks in real kernels run the same code over different data; here
    each block carries its own concrete warp streams (so data-dependent
    control flow and addresses differ per block, as in an NVBit trace).
    """

    __slots__ = ("name", "blocks", "grid_dim")

    def __init__(
        self,
        name: str,
        blocks: Sequence[BlockTrace],
        grid_dim: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        if not name:
            raise TraceError("kernel needs a name")
        blocks = list(blocks)
        if not blocks:
            raise TraceError(f"kernel {name!r} has no blocks")
        block_ids = [b.block_id for b in blocks]
        if block_ids != list(range(len(blocks))):
            raise TraceError(f"kernel {name!r}: block ids must be 0..n-1")
        if grid_dim is None:
            grid_dim = (len(blocks), 1, 1)
        if grid_dim[0] * grid_dim[1] * grid_dim[2] != len(blocks):
            raise TraceError(
                f"kernel {name!r}: grid_dim {grid_dim} does not cover {len(blocks)} blocks"
            )
        self.name = name
        self.blocks = blocks
        self.grid_dim = grid_dim

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def num_warps(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_instructions(self) -> int:
        return sum(b.num_instructions for b in self.blocks)

    def memory_accesses(self) -> Iterator[TraceInstruction]:
        """Yield every global/local memory instruction in launch order."""
        for block in self.blocks:
            for warp in block.warps:
                for inst in warp.instructions:
                    if inst.is_memory and inst.mem_space is not MemSpace.SHARED:
                        yield inst


class ApplicationTrace:
    """A whole application: an ordered list of kernel launches."""

    # ``__weakref__`` lets memo layers (analytical-profile and trace
    # caches) key on the application without pinning it in memory.
    __slots__ = ("name", "suite", "kernels", "__weakref__")

    def __init__(self, name: str, kernels: Sequence[KernelTrace], suite: str = "") -> None:
        if not name:
            raise TraceError("application needs a name")
        kernels = list(kernels)
        if not kernels:
            raise TraceError(f"application {name!r} has no kernels")
        self.name = name
        self.suite = suite
        self.kernels = kernels

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self) -> Iterator[KernelTrace]:
        return iter(self.kernels)

    @property
    def num_instructions(self) -> int:
        return sum(k.num_instructions for k in self.kernels)


def instruction_mix(trace: ApplicationTrace) -> dict:
    """Count dynamic instructions per :class:`UnitClass` (for reports/tests)."""
    mix: dict = {}
    for kernel in trace.kernels:
        for block in kernel.blocks:
            for warp in block.warps:
                for inst in warp.instructions:
                    mix[inst.unit] = mix.get(inst.unit, 0) + 1
    return mix
