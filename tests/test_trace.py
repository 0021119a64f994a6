"""Unit tests for the in-memory trace representation and its invariants."""

import pytest

from repro.errors import TraceError
from repro.frontend.isa import InstKind, MemSpace, UnitClass
from repro.frontend.trace import (
    ApplicationTrace,
    BlockTrace,
    KernelTrace,
    TraceInstruction,
    WarpTrace,
    instruction_mix,
)

from conftest import alu, load, make_warp, store


class TestTraceInstruction:
    def test_alu_properties(self):
        inst = alu(0x10, 5, (1, 2), opcode="FFMA")
        assert inst.unit is UnitClass.SP
        assert inst.kind is InstKind.ALU
        assert inst.dest_regs == (5,)
        assert inst.src_regs == (1, 2)
        assert not inst.is_memory

    def test_memory_needs_matching_address_count(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "LDG", dest_regs=(1,), addresses=(0x100,))

    def test_memory_partial_mask_address_count(self):
        inst = TraceInstruction(
            0, "LDG", dest_regs=(1,), active_mask=0b101, addresses=(0x100, 0x200)
        )
        assert inst.active_threads == 2
        assert list(inst.addresses) == [0x100, 0x200]

    def test_non_memory_rejects_addresses(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "IADD3", addresses=(0x100,))

    def test_rejects_zero_mask(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "IADD3", active_mask=0)

    def test_rejects_oversized_mask(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "IADD3", active_mask=1 << 32)

    def test_rejects_negative_pc(self):
        with pytest.raises(TraceError):
            TraceInstruction(-16, "IADD3")

    def test_rejects_negative_address(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "LDG", active_mask=0b1, addresses=(-4,))

    def test_rejects_unknown_opcode(self):
        with pytest.raises(TraceError):
            TraceInstruction(0, "FROB")

    def test_equality_and_hash(self):
        a = alu(0, 1, (2,))
        b = alu(0, 1, (2,))
        assert a == b
        assert hash(a) == hash(b)
        assert a != alu(0, 1, (3,))


class TestWarpTrace:
    def test_must_end_with_exit(self):
        with pytest.raises(TraceError):
            WarpTrace(0, [alu(0, 1)])

    def test_exit_must_be_last(self):
        insts = [TraceInstruction(0, "EXIT"), alu(16, 1), TraceInstruction(32, "EXIT")]
        with pytest.raises(TraceError):
            WarpTrace(0, insts)

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            WarpTrace(0, [])

    def test_barrier_count(self):
        warp = make_warp([
            alu(0, 1),
            TraceInstruction(16, "BAR.SYNC"),
            alu(32, 2),
            TraceInstruction(48, "BAR.SYNC"),
        ])
        assert warp.barrier_count == 2

    def test_len_and_iter(self):
        warp = make_warp([alu(0, 1), alu(16, 2)])
        assert len(warp) == 3  # + EXIT
        assert [i.opcode for i in warp] == ["IADD3", "IADD3", "EXIT"]


class TestBlockTrace:
    def test_warp_ids_must_be_contiguous(self):
        warps = [make_warp([alu(0, 1)], warp_id=1)]
        with pytest.raises(TraceError):
            BlockTrace(0, warps)

    def test_mismatched_barrier_counts_rejected(self):
        w0 = make_warp([TraceInstruction(0, "BAR.SYNC")], warp_id=0)
        w1 = make_warp([alu(0, 1)], warp_id=1)
        with pytest.raises(TraceError):
            BlockTrace(0, [w0, w1])

    def test_resource_fields(self):
        block = BlockTrace(
            0, [make_warp([alu(0, 1)])], shared_mem_bytes=4096, regs_per_thread=40
        )
        assert block.num_threads == 32
        assert block.shared_mem_bytes == 4096
        assert block.num_instructions == 2

    def test_rejects_negative_smem(self):
        with pytest.raises(TraceError):
            BlockTrace(0, [make_warp([alu(0, 1)])], shared_mem_bytes=-1)


class TestKernelTrace:
    def _block(self, block_id):
        return BlockTrace(block_id, [make_warp([alu(0, 1)])])

    def test_block_ids_contiguous(self):
        with pytest.raises(TraceError):
            KernelTrace("k", [self._block(1)])

    def test_default_grid_dim(self):
        kernel = KernelTrace("k", [self._block(0), self._block(1)])
        assert kernel.grid_dim == (2, 1, 1)

    def test_grid_dim_must_cover_blocks(self):
        with pytest.raises(TraceError):
            KernelTrace("k", [self._block(0)], grid_dim=(2, 1, 1))

    def test_counts(self):
        kernel = KernelTrace("k", [self._block(0), self._block(1)])
        assert kernel.num_warps == 2
        assert kernel.num_instructions == 4

    def test_memory_accesses_iterator_skips_shared(self):
        shared = TraceInstruction(
            0, "LDS", dest_regs=(1,), active_mask=0b1, addresses=(0,)
        )
        global_load = load(16, 2, [0x100], mask=0b1)
        warp = make_warp([shared, global_load])
        kernel = KernelTrace("k", [BlockTrace(0, [warp])])
        accesses = list(kernel.memory_accesses())
        assert accesses == [global_load]


class TestApplicationTrace:
    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            ApplicationTrace("a", [])

    def test_instruction_mix(self):
        warp = make_warp([
            alu(0, 1),
            alu(16, 2, opcode="FFMA"),
            load(32, 3, [0x100], mask=0b1),
        ])
        app = ApplicationTrace("a", [KernelTrace("k", [BlockTrace(0, [warp])])])
        mix = instruction_mix(app)
        assert mix[UnitClass.INT] == 1
        assert mix[UnitClass.SP] == 1
        assert mix[UnitClass.LDST] == 1
        assert mix[UnitClass.SYNC] == 1  # EXIT
