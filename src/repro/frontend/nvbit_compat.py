"""Importer for Accel-Sim/NVBit-style kernel trace files.

The paper's Trace Parser consumes traces captured on real NVIDIA GPUs
with an NVBit extension.  The dominant open format for such traces is
the Accel-Sim tracer's per-kernel text layout; this module reads a
faithful subset of it so real captures can drive the simulators:

.. code-block:: text

    -kernel name = vecadd
    -grid dim = (4,1,1)
    -block dim = (128,1,1)
    -shmem = 0
    -nregs = 16

    #BEGIN_TB
    thread block = 0,0,0
    warp = 0
    insts = 3
    0008 ffffffff 1 R4 IMAD.MOV.U32 2 R2 R3 0
    0010 ffffffff 1 R5 LDG.E.SYS 1 R4 4 1 0x7f0010000000 4
    0120 ffffffff 0 EXIT 0 0
    #END_TB

Instruction line grammar::

    PC MASK NUM_DEST [Rd ...] OPCODE NUM_SRC [Rs ...] MEM_WIDTH [ADDR_SPEC]

``MEM_WIDTH > 0`` marks a memory instruction; the address spec is either
mode ``0`` followed by one hex address per active thread, or mode ``1``
followed by ``base stride`` (the tracer's compressed form).  SASS
mnemonics are mapped onto the simulator ISA by their dotted prefix;
unknown opcodes fall back to the integer pipeline unless ``strict``.

Multiple kernels simply concatenate.  :func:`export_nvbit` writes the
same subset, giving a lossy-but-round-trippable bridge for tests and for
shipping generated workloads to other Accel-Sim-format consumers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TraceCorruption, TraceError
from repro.frontend.isa import OPCODES
from repro.frontend.trace import (
    WARP_SIZE,
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)
from repro.utils.bitops import bit_count

#: SASS mnemonic prefix -> simulator opcode.
SASS_PREFIX_MAP: Dict[str, str] = {
    # Integer
    "IMAD": "IMAD", "IADD3": "IADD3", "IADD": "IADD3", "ISETP": "ISETP",
    "LOP3": "LOP3", "LOP": "LOP3", "SHF": "SHF", "SHL": "SHF", "SHR": "SHF",
    "LEA": "LEA", "MOV": "MOV", "SEL": "SEL", "POPC": "POPC", "S2R": "S2R",
    "CS2R": "S2R", "IABS": "IADD3", "IMNMX": "SEL", "VOTE": "POPC",
    "PLOP3": "LOP3", "P2R": "MOV", "R2P": "MOV", "NOP": "MOV",
    # FP32
    "FFMA": "FFMA", "FADD": "FADD", "FMUL": "FMUL", "FSETP": "FSETP",
    "FSEL": "FSEL", "FMNMX": "FSEL", "FCHK": "FSETP", "F2I": "FADD",
    "I2F": "FADD", "F2F": "FADD", "FRND": "FADD",
    # FP64
    "DADD": "DADD", "DMUL": "DMUL", "DFMA": "DFMA", "DSETP": "DADD",
    # SFU
    "MUFU": "MUFU.RCP",
    # Tensor
    "HMMA": "HMMA", "IMMA": "HMMA", "BMMA": "HMMA",
    # Memory
    "LDG": "LDG", "STG": "STG", "LDL": "LDL", "STL": "STL",
    "LDS": "LDS", "STS": "STS", "LD": "LDG", "ST": "STG",
    "ATOM": "ATOMG", "ATOMG": "ATOMG", "ATOMS": "ATOMS", "RED": "RED",
    # Control
    "BRA": "BRA", "BRX": "BRA", "JMP": "BRA", "BSSY": "BSSY",
    "BSYNC": "BSYNC", "RET": "RET", "EXIT": "EXIT", "CALL": "BRA",
    # Sync
    "BAR": "BAR.SYNC", "MEMBAR": "MEMBAR", "ERRBAR": "MEMBAR",
    "DEPBAR": "MEMBAR",
}


def map_sass_opcode(mnemonic: str, strict: bool = False) -> str:
    """Map a dotted SASS mnemonic (``LDG.E.SYS``) to a simulator opcode."""
    prefix = mnemonic.split(".")[0].upper()
    mapped = SASS_PREFIX_MAP.get(prefix)
    if mapped is not None:
        return mapped
    if mnemonic in OPCODES:
        return mnemonic
    if strict:
        raise TraceError(f"unknown SASS mnemonic {mnemonic!r}")
    return "IADD3"  # default integer-pipeline latency class


class _NVBitParser:
    def __init__(self, lines: List[str], source: str, strict: bool) -> None:
        self._lines = lines
        self._source = source
        self._strict = strict
        self._index = 0

    def _fail(self, message: str) -> None:
        raise TraceCorruption(message, source=self._source, line=self._index)

    def _int(self, text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            self._fail(f"{what} is not an integer: {text.strip()!r}")

    def _next_meaningful(self) -> Optional[str]:
        while self._index < len(self._lines):
            line = self._lines[self._index].strip()
            self._index += 1
            if line:
                return line
        return None

    def parse(self, app_name: str, suite: str) -> ApplicationTrace:
        kernels: List[KernelTrace] = []
        line = self._next_meaningful()
        while line is not None:
            if line.startswith("-kernel name"):
                kernels.append(self._parse_kernel(line))
                line = self._next_meaningful()
            else:
                self._fail(f"expected '-kernel name', got {line!r}")
        if not kernels:
            raise TraceError(f"{self._source}: no kernels found")
        return ApplicationTrace(app_name, kernels, suite=suite)

    def _header_value(self, line: Optional[str], key: str) -> str:
        if line is None or "=" not in line or not line.startswith(f"-{key}"):
            self._fail(f"expected '-{key} = ...', got {line!r}")
        return line.split("=", 1)[1].strip()

    def _parse_dim(self, key: str) -> Tuple[int, int, int]:
        text = self._header_value(self._next_meaningful(), key)
        parts = [self._int(v, key) for v in text.strip("()").split(",")]
        while len(parts) < 3:
            parts.append(1)
        return parts[0], parts[1], parts[2]

    def _parse_kernel(self, first_line: str) -> KernelTrace:
        name = self._header_value(first_line, "kernel name")
        grid = self._parse_dim("grid dim")
        block_dim = self._parse_dim("block dim")
        shmem = self._int(self._header_value(self._next_meaningful(), "shmem"), "shmem")
        nregs = self._int(self._header_value(self._next_meaningful(), "nregs"), "nregs")
        num_blocks = grid[0] * grid[1] * grid[2]
        threads = block_dim[0] * block_dim[1] * block_dim[2]
        warps_per_block = max(1, (threads + WARP_SIZE - 1) // WARP_SIZE)
        blocks: List[BlockTrace] = []
        for block_id in range(num_blocks):
            blocks.append(
                self._parse_thread_block(block_id, warps_per_block, shmem, nregs)
            )
        return KernelTrace(name, blocks, grid_dim=grid)

    def _parse_thread_block(
        self, block_id: int, warps_per_block: int, shmem: int, nregs: int
    ) -> BlockTrace:
        line = self._next_meaningful()
        if line != "#BEGIN_TB":
            self._fail(f"expected '#BEGIN_TB', got {line!r}")
        line = self._next_meaningful()
        if not line or not line.startswith("thread block"):
            self._fail(f"expected 'thread block = x,y,z', got {line!r}")
        warps: List[WarpTrace] = []
        for expected_warp in range(warps_per_block):
            warps.append(self._parse_warp(expected_warp))
        line = self._next_meaningful()
        if line != "#END_TB":
            self._fail(f"expected '#END_TB', got {line!r}")
        return BlockTrace(
            block_id, warps, shared_mem_bytes=shmem, regs_per_thread=max(1, nregs)
        )

    def _parse_warp(self, expected_warp: int) -> WarpTrace:
        line = self._next_meaningful()
        if not line or not line.startswith("warp"):
            self._fail(f"expected 'warp = N', got {line!r}")
        warp_id = self._int(
            line.split("=", 1)[1] if "=" in line else line.split()[-1], "warp"
        )
        if warp_id != expected_warp:
            self._fail(f"expected warp {expected_warp}, trace says {warp_id}")
        line = self._next_meaningful()
        if not line or not line.startswith("insts") or "=" not in line:
            self._fail(f"expected 'insts = N', got {line!r}")
        count = self._int(line.split("=", 1)[1], "insts")
        instructions = [self._parse_instruction() for __ in range(count)]
        if not instructions or instructions[-1].opcode != "EXIT":
            pc = instructions[-1].pc + 16 if instructions else 0
            instructions.append(TraceInstruction(pc, "EXIT"))
        return WarpTrace(warp_id, instructions)

    def _parse_instruction(self) -> TraceInstruction:
        line = self._next_meaningful()
        if line is None:
            self._fail("unexpected end of trace inside a warp")
        fields = line.split()
        try:
            cursor = 0
            pc = int(fields[cursor], 16)
            cursor += 1
            mask = int(fields[cursor], 16)
            cursor += 1
            num_dest = int(fields[cursor])
            cursor += 1
            dest_regs = [int(fields[cursor + i].lstrip("Rr")) for i in range(num_dest)]
            cursor += num_dest
            mnemonic = fields[cursor]
            cursor += 1
            num_src = int(fields[cursor])
            cursor += 1
            src_regs = [int(fields[cursor + i].lstrip("Rr")) for i in range(num_src)]
            cursor += num_src
            mem_width = int(fields[cursor])
            cursor += 1
            addresses: List[int] = []
            if mem_width > 0:
                mode = int(fields[cursor])
                cursor += 1
                active = bit_count(mask)
                if mode == 0:
                    addresses = [int(fields[cursor + i], 16) for i in range(active)]
                elif mode == 1:
                    base = int(fields[cursor], 16)
                    stride = int(fields[cursor + 1])
                    addresses = [base + i * stride for i in range(active)]
                else:
                    self._fail(f"unsupported address mode {mode}")
        except (IndexError, ValueError):
            self._fail(f"malformed instruction line {line!r}")
        opcode = map_sass_opcode(mnemonic, strict=self._strict)
        info = OPCODES[opcode]
        if not info.is_memory:
            addresses = []
        elif not addresses:
            # Memory mnemonic without recorded addresses: treat as a
            # uniform access so timing still sees a transaction.
            addresses = [0] * bit_count(mask)
        if mask == 0:
            mask = (1 << WARP_SIZE) - 1
        return TraceInstruction(
            pc=pc,
            opcode=opcode,
            dest_regs=dest_regs,
            src_regs=src_regs,
            active_mask=mask,
            addresses=addresses,
        )


def parse_nvbit(
    text: str, app_name: str = "nvbit_app", suite: str = "", source: str = "<string>",
    strict: bool = False,
) -> ApplicationTrace:
    """Parse Accel-Sim/NVBit trace text."""
    return _NVBitParser(text.splitlines(), source, strict).parse(app_name, suite)


def load_nvbit(
    path: Union[str, Path], app_name: Optional[str] = None, strict: bool = False
) -> ApplicationTrace:
    """Load an Accel-Sim/NVBit trace file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {path}") from None
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceCorruption(
            f"not UTF-8 text: {exc.reason}", source=str(path),
            line=raw.count(b"\n", 0, exc.start) + 1,
        ) from None
    return parse_nvbit(
        text, app_name=app_name or path.stem, source=str(path), strict=strict
    )


def export_nvbit(app: ApplicationTrace, path: Union[str, Path]) -> None:
    """Write ``app`` in the Accel-Sim-style format (uncompressed addresses)."""
    lines: List[str] = []
    for kernel in app.kernels:
        blocks = kernel.blocks
        warps_per_block = len(blocks[0].warps)
        lines.append(f"-kernel name = {kernel.name}")
        gx, gy, gz = kernel.grid_dim
        lines.append(f"-grid dim = ({gx},{gy},{gz})")
        lines.append(f"-block dim = ({warps_per_block * WARP_SIZE},1,1)")
        lines.append(f"-shmem = {blocks[0].shared_mem_bytes}")
        lines.append(f"-nregs = {blocks[0].regs_per_thread}")
        lines.append("")
        for block in blocks:
            lines.append("#BEGIN_TB")
            lines.append(f"thread block = {block.block_id},0,0")
            for warp in block.warps:
                lines.append(f"warp = {warp.warp_id}")
                lines.append(f"insts = {len(warp.instructions)}")
                for inst in warp.instructions:
                    parts = [f"{inst.pc:04x}", f"{inst.active_mask:08x}"]
                    parts.append(str(len(inst.dest_regs)))
                    parts.extend(f"R{reg}" for reg in inst.dest_regs)
                    parts.append(inst.opcode)
                    parts.append(str(len(inst.src_regs)))
                    parts.extend(f"R{reg}" for reg in inst.src_regs)
                    if inst.is_memory:
                        parts.append("4")
                        parts.append("0")
                        parts.extend(f"{addr:#x}" for addr in inst.addresses)
                    else:
                        parts.append("0")
                    lines.append(" ".join(parts))
            lines.append("#END_TB")
        lines.append("")
    Path(path).write_text("\n".join(lines))
