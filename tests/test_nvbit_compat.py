"""Tests for the Accel-Sim/NVBit trace importer."""

import pytest

from repro.errors import TraceError
from repro.frontend.isa import InstKind, UnitClass
from repro.frontend.nvbit_compat import (
    export_nvbit,
    load_nvbit,
    map_sass_opcode,
    parse_nvbit,
)
from repro.simulators.swift_basic import SwiftSimBasic
from repro.tracegen.suites import make_app

from conftest import make_tiny_gpu

SAMPLE = """\
-kernel name = vecadd
-grid dim = (2,1,1)
-block dim = (64,1,1)
-shmem = 0
-nregs = 16

#BEGIN_TB
thread block = 0,0,0
warp = 0
insts = 4
0008 ffffffff 1 R4 IMAD.MOV.U32 2 R2 R3 0
0010 ffffffff 1 R5 LDG.E.SYS 1 R4 4 1 0x10000000 4
0018 ffffffff 1 R6 FFMA 2 R5 R6 0
0120 ffffffff 0 EXIT 0 0
warp = 1
insts = 2
0008 0000000f 1 R5 LDG.E.SYS 1 R4 4 0 0x20000000 0x20000080 0x20000100 0x20000180
0120 ffffffff 0 EXIT 0 0
#END_TB
#BEGIN_TB
thread block = 1,0,0
warp = 0
insts = 1
0120 ffffffff 0 EXIT 0 0
warp = 1
insts = 1
0120 ffffffff 0 EXIT 0 0
#END_TB
"""


class TestOpcodeMapping:
    def test_memory_prefixes(self):
        assert map_sass_opcode("LDG.E.SYS") == "LDG"
        assert map_sass_opcode("STG.E") == "STG"
        assert map_sass_opcode("ATOM.E.ADD") == "ATOMG"

    def test_arithmetic_prefixes(self):
        assert map_sass_opcode("IMAD.MOV.U32") == "IMAD"
        assert map_sass_opcode("FFMA") == "FFMA"
        assert map_sass_opcode("MUFU.RSQ") == "MUFU.RCP"
        assert map_sass_opcode("HMMA.16816.F32") == "HMMA"

    def test_sync_prefixes(self):
        assert map_sass_opcode("BAR.SYNC.DEFER_BLOCKING") == "BAR.SYNC"
        assert map_sass_opcode("EXIT") == "EXIT"

    def test_unknown_falls_back_to_int(self):
        assert map_sass_opcode("QSPC.E.G") == "IADD3"

    def test_unknown_strict_raises(self):
        with pytest.raises(TraceError):
            map_sass_opcode("QSPC.E.G", strict=True)


class TestParse:
    def test_structure(self):
        app = parse_nvbit(SAMPLE, app_name="vecadd")
        assert len(app.kernels) == 1
        kernel = app.kernels[0]
        assert kernel.name == "vecadd"
        assert len(kernel.blocks) == 2          # grid (2,1,1)
        assert len(kernel.blocks[0].warps) == 2  # 64 threads
        assert kernel.blocks[0].regs_per_thread == 16

    def test_instruction_translation(self):
        app = parse_nvbit(SAMPLE)
        warp0 = app.kernels[0].blocks[0].warps[0]
        imad, ldg, ffma, exit_inst = warp0.instructions
        assert imad.unit is UnitClass.INT
        assert imad.dest_regs == (4,) and imad.src_regs == (2, 3)
        assert ldg.kind is InstKind.LOAD
        assert exit_inst.kind is InstKind.EXIT

    def test_compressed_addresses_mode1(self):
        app = parse_nvbit(SAMPLE)
        ldg = app.kernels[0].blocks[0].warps[0].instructions[1]
        assert len(ldg.addresses) == 32
        assert ldg.addresses[0] == 0x10000000
        assert ldg.addresses[1] - ldg.addresses[0] == 4

    def test_explicit_addresses_mode0_with_mask(self):
        app = parse_nvbit(SAMPLE)
        ldg = app.kernels[0].blocks[0].warps[1].instructions[0]
        assert ldg.active_mask == 0xF
        assert list(ldg.addresses) == [0x20000000, 0x20000080, 0x20000100, 0x20000180]

    def test_parsed_trace_simulates(self, tiny_gpu):
        app = parse_nvbit(SAMPLE, app_name="vecadd")
        result = SwiftSimBasic(tiny_gpu).simulate(app)
        assert result.total_cycles > 0
        assert result.metrics.instructions == app.num_instructions

    def test_missing_exit_appended(self):
        text = SAMPLE.replace(
            "insts = 1\n0120 ffffffff 0 EXIT 0 0\n#END_TB",
            "insts = 1\n0008 ffffffff 1 R4 IMAD 0 0\n#END_TB", 1,
        )
        app = parse_nvbit(text)
        last_block_warp = app.kernels[0].blocks[1].warps[0]
        assert last_block_warp.instructions[-1].kind is InstKind.EXIT

    def test_malformed_header_typed(self):
        with pytest.raises(TraceError):
            parse_nvbit("-kernel name = x\n-wrong = 1\n")

    def test_malformed_instruction_typed(self):
        broken = SAMPLE.replace("0008 ffffffff 1 R4 IMAD.MOV.U32 2 R2 R3 0",
                                "zzzz not an instruction")
        with pytest.raises(TraceError):
            parse_nvbit(broken)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_nvbit(tmp_path / "nope.traceg")


class TestExportRoundTrip:
    def test_generated_app_round_trips(self, tmp_path):
        app = make_app("atax", scale="tiny")
        path = tmp_path / "atax.traceg"
        export_nvbit(app, path)
        reloaded = load_nvbit(path, app_name=app.name)
        assert reloaded.num_instructions == app.num_instructions
        for k_orig, k_new in zip(app.kernels, reloaded.kernels):
            assert len(k_new.blocks) == len(k_orig.blocks)
            for b_orig, b_new in zip(k_orig.blocks, k_new.blocks):
                for w_orig, w_new in zip(b_orig.warps, b_new.warps):
                    for i_orig, i_new in zip(w_orig.instructions, w_new.instructions):
                        assert i_new.opcode == i_orig.opcode
                        assert i_new.addresses == i_orig.addresses
                        assert i_new.active_mask == i_orig.active_mask

    def test_round_trip_preserves_timing(self, tmp_path, tiny_gpu):
        app = make_app("gemm", scale="tiny")
        path = tmp_path / "gemm.traceg"
        export_nvbit(app, path)
        reloaded = load_nvbit(path, app_name=app.name)
        original = SwiftSimBasic(tiny_gpu).simulate(app, gather_metrics=False)
        again = SwiftSimBasic(make_tiny_gpu()).simulate(reloaded, gather_metrics=False)
        assert again.total_cycles == original.total_cycles
