"""A SASS-like trace ISA.

Traces captured with NVBit carry SASS opcodes.  The simulator only needs
to know, per opcode, which execution unit services it, how its base
latency scales, and whether it is a memory / control / synchronization
instruction — that is what :class:`OpcodeInfo` records.

The opcode table below covers the instruction mix emitted by the
synthetic trace generators and is the single source of truth consulted by
every modeling component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique

from repro.errors import TraceError


@unique
class UnitClass(Enum):
    """Which functional unit executes an instruction (Table II resources)."""

    INT = "int"
    SP = "sp"        # FP32 cores
    DP = "dp"        # FP64 units
    SFU = "sfu"      # special-function units
    TENSOR = "tensor"
    LDST = "ldst"    # load/store units
    BRANCH = "branch"
    SYNC = "sync"    # barriers / membars; handled by the scheduler


@unique
class InstKind(Enum):
    """Behavioural category the scheduler / LD-ST unit dispatches on."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    BRANCH = "branch"
    BARRIER = "barrier"
    MEMBAR = "membar"
    EXIT = "exit"


@unique
class MemSpace(Enum):
    """Address space of a memory instruction."""

    NONE = "none"
    GLOBAL = "global"
    LOCAL = "local"
    SHARED = "shared"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one SASS opcode.

    ``latency_factor`` scales the base latency of the opcode's unit (for
    example transcendental SFU ops are slower than a reciprocal).
    """

    name: str
    unit: UnitClass
    kind: InstKind
    mem_space: MemSpace = MemSpace.NONE
    latency_factor: int = 1
    #: True for loads, stores, and atomics (anything carrying addresses).
    #: Derived from ``kind`` once, here: trace construction reads it per
    #: dynamic instruction.
    is_memory: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "is_memory",
            self.kind in (InstKind.LOAD, InstKind.STORE, InstKind.ATOMIC),
        )


def _op(name, unit, kind, mem_space=MemSpace.NONE, latency_factor=1):
    return OpcodeInfo(name, unit, kind, mem_space, latency_factor)


#: The opcode table, keyed by SASS mnemonic.
OPCODES = {
    info.name: info
    for info in (
        # Integer pipeline
        _op("IADD3", UnitClass.INT, InstKind.ALU),
        _op("IMAD", UnitClass.INT, InstKind.ALU),
        _op("ISETP", UnitClass.INT, InstKind.ALU),
        _op("LOP3", UnitClass.INT, InstKind.ALU),
        _op("SHF", UnitClass.INT, InstKind.ALU),
        _op("LEA", UnitClass.INT, InstKind.ALU),
        _op("MOV", UnitClass.INT, InstKind.ALU),
        _op("SEL", UnitClass.INT, InstKind.ALU),
        _op("POPC", UnitClass.INT, InstKind.ALU, latency_factor=2),
        _op("S2R", UnitClass.INT, InstKind.ALU, latency_factor=2),
        # FP32 pipeline
        _op("FADD", UnitClass.SP, InstKind.ALU),
        _op("FMUL", UnitClass.SP, InstKind.ALU),
        _op("FFMA", UnitClass.SP, InstKind.ALU),
        _op("FSETP", UnitClass.SP, InstKind.ALU),
        _op("FSEL", UnitClass.SP, InstKind.ALU),
        # FP64 pipeline
        _op("DADD", UnitClass.DP, InstKind.ALU),
        _op("DMUL", UnitClass.DP, InstKind.ALU),
        _op("DFMA", UnitClass.DP, InstKind.ALU),
        # Special-function units
        _op("MUFU.RCP", UnitClass.SFU, InstKind.ALU),
        _op("MUFU.SQRT", UnitClass.SFU, InstKind.ALU),
        _op("MUFU.EX2", UnitClass.SFU, InstKind.ALU, latency_factor=2),
        _op("MUFU.LG2", UnitClass.SFU, InstKind.ALU, latency_factor=2),
        _op("MUFU.SIN", UnitClass.SFU, InstKind.ALU, latency_factor=2),
        # Tensor cores
        _op("HMMA", UnitClass.TENSOR, InstKind.ALU),
        # Global memory
        _op("LDG", UnitClass.LDST, InstKind.LOAD, MemSpace.GLOBAL),
        _op("STG", UnitClass.LDST, InstKind.STORE, MemSpace.GLOBAL),
        _op("ATOMG", UnitClass.LDST, InstKind.ATOMIC, MemSpace.GLOBAL, 2),
        _op("RED", UnitClass.LDST, InstKind.ATOMIC, MemSpace.GLOBAL, 2),
        # Local memory (spills) — routed through the global hierarchy
        _op("LDL", UnitClass.LDST, InstKind.LOAD, MemSpace.LOCAL),
        _op("STL", UnitClass.LDST, InstKind.STORE, MemSpace.LOCAL),
        # Shared memory
        _op("LDS", UnitClass.LDST, InstKind.LOAD, MemSpace.SHARED),
        _op("STS", UnitClass.LDST, InstKind.STORE, MemSpace.SHARED),
        _op("ATOMS", UnitClass.LDST, InstKind.ATOMIC, MemSpace.SHARED, 2),
        # Control flow
        _op("BRA", UnitClass.BRANCH, InstKind.BRANCH),
        _op("BSSY", UnitClass.BRANCH, InstKind.BRANCH),
        _op("BSYNC", UnitClass.BRANCH, InstKind.BRANCH),
        _op("RET", UnitClass.BRANCH, InstKind.BRANCH),
        # Synchronization
        _op("BAR.SYNC", UnitClass.SYNC, InstKind.BARRIER),
        _op("MEMBAR", UnitClass.SYNC, InstKind.MEMBAR),
        # Termination
        _op("EXIT", UnitClass.SYNC, InstKind.EXIT),
    )
}


def opcode_info(name: str) -> OpcodeInfo:
    """Look up one opcode; raise :class:`TraceError` for unknown mnemonics."""
    try:
        return OPCODES[name]
    except KeyError:
        raise TraceError(f"unknown opcode {name!r}") from None


#: Opcodes grouped by unit, useful for generators and tests.
OPCODES_BY_UNIT = {}
for _info in OPCODES.values():
    OPCODES_BY_UNIT.setdefault(_info.unit, []).append(_info.name)
del _info
