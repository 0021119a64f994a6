"""Trace-building primitives.

:class:`WarpBuilder` assembles one warp's instruction stream with
automatic PC layout and register bookkeeping; :class:`KernelBuilder`
assembles blocks of warps into a :class:`~repro.frontend.trace.KernelTrace`.
Generators describe *what* the kernel does (loads with a pattern,
dependent arithmetic, barriers); the builders keep the trace invariants
(EXIT-terminated warps, matching barrier counts, mask/address
consistency) impossible to violate by construction.
"""

from __future__ import annotations

import random
from enum import Enum, unique
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.frontend.trace import (
    WARP_SIZE,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)
from repro.utils.bitops import full_mask, mask_iter
from repro.utils.rng import derive_seed

_FULL_MASK = full_mask(WARP_SIZE)

#: Instruction size in bytes for PC layout (SASS is 16 bytes/inst).
_PC_STEP = 16


@unique
class Scale(Enum):
    """Workload sizes: ``tiny`` for unit tests, ``small`` for benches,
    ``medium`` for longer validation runs."""

    TINY = "tiny"
    SMALL = "small"
    MEDIUM = "medium"

    @staticmethod
    def parse(value) -> "Scale":
        if isinstance(value, Scale):
            return value
        try:
            return Scale(str(value).lower())
        except ValueError:
            raise WorkloadError(
                f"unknown scale {value!r}; use tiny, small, or medium"
            ) from None

    def pick(self, tiny, small, medium):
        """Select a per-scale parameter value."""
        if self is Scale.TINY:
            return tiny
        if self is Scale.SMALL:
            return small
        return medium


class RegisterPool:
    """Cycling allocator over the upper register file (r32..r231).

    Reusing registers after a long cycle creates realistic WAW pressure
    without tracking liveness.
    """

    FIRST = 32
    LAST = 231

    def __init__(self) -> None:
        self._next = self.FIRST

    def alloc(self) -> int:
        reg = self._next
        self._next += 1
        if self._next > self.LAST:
            self._next = self.FIRST
        return reg


class WarpBuilder:
    """Builds one warp's dynamic instruction stream."""

    def __init__(
        self,
        warp_id: int,
        rng: random.Random,
        shared: Optional[Dict[tuple, TraceInstruction]] = None,
    ) -> None:
        self.warp_id = warp_id
        self.rng = rng
        self.regs = RegisterPool()
        self._instructions: List[TraceInstruction] = []
        self._pc = 0
        # Address-free instructions by value.  Warps of one kernel run
        # the same code, so :meth:`KernelBuilder.build` hands them one
        # table and each ALU / branch / barrier / EXIT exists once.
        self._shared = {} if shared is None else shared

    def __len__(self) -> int:
        return len(self._instructions)

    def _emit(
        self,
        opcode: str,
        dest: Sequence[int] = (),
        src: Sequence[int] = (),
        mask: int = _FULL_MASK,
        addresses: Sequence[int] = (),
    ) -> None:
        if addresses:
            inst = TraceInstruction(self._pc, opcode, dest, src, mask, addresses)
        else:
            key = (self._pc, opcode, tuple(dest), tuple(src), mask)
            try:
                inst = self._shared[key]
            except KeyError:
                inst = TraceInstruction(self._pc, opcode, dest, src, mask)
                self._shared[key] = inst
        self._instructions.append(inst)
        self._pc += _PC_STEP

    # -- arithmetic ----------------------------------------------------

    def alu(self, opcode: str, srcs: Sequence[int] = ()) -> int:
        """Emit one ALU instruction reading ``srcs``; returns its dest reg."""
        dest = self.regs.alloc()
        self._emit(opcode, dest=(dest,), src=srcs)
        return dest

    def alu_chain(self, opcode: str, length: int, seed_reg: Optional[int] = None) -> int:
        """Emit a serially dependent chain (each op reads the previous)."""
        reg = seed_reg if seed_reg is not None else self.alu("MOV")
        for __ in range(length):
            reg = self.alu(opcode, (reg,))
        return reg

    def alu_parallel(self, opcode: str, count: int, srcs: Sequence[int] = ()) -> List[int]:
        """Emit ``count`` independent ALU instructions (ILP)."""
        return [self.alu(opcode, srcs) for __ in range(count)]

    # -- memory ----------------------------------------------------------

    def load(
        self,
        addresses: Sequence[int],
        mask: int = _FULL_MASK,
        opcode: str = "LDG",
        addr_reg: Optional[int] = None,
    ) -> int:
        """Emit a load; returns the destination register."""
        dest = self.regs.alloc()
        src = (addr_reg,) if addr_reg is not None else ()
        self._emit(opcode, dest=(dest,), src=src, mask=mask, addresses=addresses)
        return dest

    def store(
        self,
        addresses: Sequence[int],
        value_reg: int,
        mask: int = _FULL_MASK,
        opcode: str = "STG",
    ) -> None:
        self._emit(opcode, src=(value_reg,), mask=mask, addresses=addresses)

    def atomic(self, addresses: Sequence[int], value_reg: int, mask: int = _FULL_MASK) -> None:
        self._emit("RED", src=(value_reg,), mask=mask, addresses=addresses)

    def shared_load(self, offsets: Sequence[int], mask: int = _FULL_MASK) -> int:
        dest = self.regs.alloc()
        self._emit("LDS", dest=(dest,), mask=mask, addresses=offsets)
        return dest

    def shared_store(self, offsets: Sequence[int], value_reg: int, mask: int = _FULL_MASK) -> None:
        self._emit("STS", src=(value_reg,), mask=mask, addresses=offsets)

    # -- control ---------------------------------------------------------

    def branch(self) -> None:
        self._emit("BRA")

    def barrier(self) -> None:
        self._emit("BAR.SYNC")

    def membar(self) -> None:
        self._emit("MEMBAR")

    def finish(self) -> WarpTrace:
        """Terminate with EXIT and build the immutable warp trace."""
        self._emit("EXIT")
        return WarpTrace(self.warp_id, self._instructions)


#: A generator callback: fills one warp given (builder, block_id, warp_id).
WarpGenerator = Callable[[WarpBuilder, int, int], None]


class KernelBuilder:
    """Builds one kernel from a per-warp generator callback."""

    def __init__(
        self,
        name: str,
        num_blocks: int,
        warps_per_block: int,
        shared_mem_bytes: int = 0,
        regs_per_thread: int = 32,
        seed_label: str = "",
    ) -> None:
        if num_blocks < 1 or warps_per_block < 1:
            raise WorkloadError("kernel needs at least one block and warp")
        self.name = name
        self.num_blocks = num_blocks
        self.warps_per_block = warps_per_block
        self.shared_mem_bytes = shared_mem_bytes
        self.regs_per_thread = regs_per_thread
        self.seed_label = seed_label or name

    def build(self, generate: WarpGenerator) -> KernelTrace:
        blocks = []
        shared: Dict[tuple, TraceInstruction] = {}
        for block_id in range(self.num_blocks):
            warps = []
            for warp_id in range(self.warps_per_block):
                rng = random.Random(
                    derive_seed(self.seed_label, block_id, warp_id)
                )
                builder = WarpBuilder(warp_id, rng, shared)
                generate(builder, block_id, warp_id)
                warps.append(builder.finish())
            blocks.append(
                BlockTrace(
                    block_id,
                    warps,
                    shared_mem_bytes=self.shared_mem_bytes,
                    regs_per_thread=self.regs_per_thread,
                )
            )
        return KernelTrace(self.name, blocks)


def divergent_mask(rng: random.Random, min_active: int = 1, max_active: int = WARP_SIZE) -> int:
    """Random active mask with between ``min_active`` and ``max_active``
    lanes set — the branch-divergence signature of irregular workloads."""
    active = rng.randint(min_active, max_active)
    lanes = rng.sample(range(WARP_SIZE), active)
    mask = 0
    for lane in lanes:
        mask |= 1 << lane
    return mask


def lanes_of(mask: int) -> List[int]:
    """Active lane indices of a mask, ascending (address order)."""
    return list(mask_iter(mask))
