"""Shared fixtures: a shrunken GPU configuration and small traces.

Unit and integration tests run against a deliberately small GPU (4 SMs,
small caches) so full simulations finish in milliseconds while touching
every code path the full presets do.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.frontend.config import (
    CacheConfig,
    DRAMConfig,
    ExecUnitConfig,
    GPUConfig,
    NoCConfig,
    SMConfig,
)
from repro.frontend.isa import UnitClass
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
)


def make_tiny_gpu(**overrides) -> GPUConfig:
    """A 4-SM GPU with small caches; keyword overrides replace top-level
    GPUConfig fields."""
    sm = SMConfig(
        sub_cores=4,
        scheduler_policy="GTO",
        exec_units=(
            ExecUnitConfig(UnitClass.INT, 16, 4),
            ExecUnitConfig(UnitClass.SP, 16, 4),
            ExecUnitConfig(UnitClass.DP, 0.5, 40),
            ExecUnitConfig(UnitClass.SFU, 4, 21),
            ExecUnitConfig(UnitClass.TENSOR, 8, 32),
        ),
        max_warps=16,
        max_blocks=8,
        max_threads=512,
        registers=65536,
        shared_mem_bytes=32768,
    )
    params = dict(
        name="TestGPU",
        architecture="Test",
        graphics_processor="T100",
        num_sms=4,
        cuda_cores=256,
        sm=sm,
        l1=CacheConfig(size_bytes=8 * 1024, assoc=4, mshr_entries=32,
                       mshr_max_merge=4, latency=16, streaming=True),
        l2=CacheConfig(size_bytes=128 * 1024, assoc=8, mshr_entries=32,
                       mshr_max_merge=4, latency=60, write_back=True,
                       write_allocate=True),
        memory_partitions=4,
        noc=NoCConfig(latency=4),
        dram=DRAMConfig(latency=100, row_hit_latency=30, bytes_per_cycle=16),
    )
    params.update(overrides)
    return GPUConfig(**params)


@pytest.fixture
def tiny_gpu() -> GPUConfig:
    return make_tiny_gpu()


def make_warp(instructions, warp_id: int = 0) -> WarpTrace:
    """Wrap instructions in a warp, appending EXIT if missing."""
    instructions = list(instructions)
    if not instructions or instructions[-1].opcode != "EXIT":
        pc = (instructions[-1].pc + 16) if instructions else 0
        instructions.append(TraceInstruction(pc, "EXIT"))
    return WarpTrace(warp_id, instructions)


def make_single_warp_app(instructions, name: str = "unit") -> ApplicationTrace:
    """One app / one kernel / one block / one warp from raw instructions."""
    warp = make_warp(instructions)
    block = BlockTrace(0, [warp])
    kernel = KernelTrace(f"{name}_kernel", [block])
    return ApplicationTrace(name, [kernel])


def alu(pc: int, dest: int, srcs=(), opcode: str = "IADD3") -> TraceInstruction:
    return TraceInstruction(pc, opcode, dest_regs=(dest,), src_regs=tuple(srcs))


def load(pc: int, dest: int, addresses, mask: int = 0xFFFFFFFF) -> TraceInstruction:
    return TraceInstruction(
        pc, "LDG", dest_regs=(dest,), active_mask=mask, addresses=tuple(addresses)
    )


def store(pc: int, src: int, addresses, mask: int = 0xFFFFFFFF) -> TraceInstruction:
    return TraceInstruction(
        pc, "STG", src_regs=(src,), active_mask=mask, addresses=tuple(addresses)
    )


def warp_in_slot(slot: int = 0) -> SimpleNamespace:
    """What ``issue_global`` needs of the issuing warp: its hardware slot."""
    return SimpleNamespace(slot=slot)


def coalesced_addrs(base: int = 0x10000, count: int = 32, step: int = 4):
    return [base + i * step for i in range(count)]


class StreamTranscript:
    """A stream writer that keeps what was written to it."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


async def serve_connection(service, lines) -> list:
    """Feed ``lines`` (raw bytes, newlines included) to one connection of
    a ``SweepService`` and return every response it wrote, decoded."""
    import asyncio
    import json

    from repro.serve.service import LINE_LIMIT

    reader = asyncio.StreamReader(limit=LINE_LIMIT)
    for line in lines:
        reader.feed_data(line)
    reader.feed_eof()
    writer = StreamTranscript()
    await service._handle_connection(reader, writer)
    return [json.loads(line) for line in writer.data.splitlines()]

